package translate

import "repro/internal/capl"

// SameProc lets the external tests observe every pair of processes the
// translator compares.
var SameProc = &sameProc

// MessageCtors returns the translator's two message tables for prog
// under opts: CAPL variable -> constructor, and CAN identifier ->
// constructor (what `on message 0x…` resolves through).
func MessageCtors(prog *capl.Program, opts Options) (byVar map[string]string, byID map[int64]string, err error) {
	tr, err := newTranslator(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	return tr.msgCtor, tr.msgByID, nil
}
