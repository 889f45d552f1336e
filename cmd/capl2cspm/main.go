// Command capl2cspm is the model extractor of the paper's Figure 1: it
// translates a CAPL network-node program into a CSPm implementation
// model for the fdrlite refinement checker.
//
// Usage:
//
//	capl2cspm -node ECU [-in send] [-out rec] [-rename a=b,c=d] [-strict] [-dbc db.dbc] [-o file.csp] node.can
//
// With -strict the caplint static analyzer runs before extraction and
// any error-severity finding (unknown functions, undeclared messages,
// signal-width violations, ...) aborts the translation; the generated
// text on clean input is byte-identical to a non-strict run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/translate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capl2cspm:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capl2cspm", flag.ContinueOnError)
	node := fs.String("node", "NODE", "name of the generated node process")
	in := fs.String("in", "send", "channel carrying messages the node receives")
	out := fs.String("out", "rec", "channel carrying messages the node emits")
	rename := fs.String("rename", "", "comma-separated CAPLname=ctor message renames")
	timers := fs.Bool("timers", true, "translate timer interactions into events")
	timerProc := fs.Bool("timer-process", false, "also emit the TIMER(t) lifecycle process")
	omitDecls := fs.Bool("omit-decls", false, "emit process definitions only (for composition)")
	strict := fs.Bool("strict", false, "run the static analyzer first; refuse extraction on error-severity findings")
	dbcPath := fs.String("dbc", "", "CAN database for the strict cross-check")
	output := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	renames, err := parseRenames(*rename)
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one CAPL source file, got %d", fs.NArg())
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := capl.Parse(string(src))
	if err != nil {
		return err
	}
	var db *candb.Database
	if *dbcPath != "" {
		dbSrc, err := os.ReadFile(*dbcPath)
		if err != nil {
			return err
		}
		db, err = candb.Parse(string(dbSrc))
		if err != nil {
			return err
		}
	}
	opts := translate.Options{
		NodeName:             *node,
		InChannel:            *in,
		OutChannel:           *out,
		MessageRename:        renames,
		IncludeTimers:        *timers,
		GenerateTimerProcess: *timerProc,
		OmitDecls:            *omitDecls,
		SourceFile:           fs.Arg(0),
		Strict:               *strict,
		DB:                   db,
	}
	res, err := translate.Translate(prog, opts)
	if err != nil {
		return err
	}
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, "warning:", d)
	}
	if *output == "" {
		_, err = io.WriteString(stdout, res.Text)
		return err
	}
	return os.WriteFile(*output, []byte(res.Text), 0o644)
}

// parseRenames reads the -rename list: comma-separated CAPLname=ctor
// pairs, each with both sides non-empty.
func parseRenames(spec string) (map[string]string, error) {
	out := map[string]string{}
	if spec == "" {
		return out, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		from, to, ok := strings.Cut(pair, "=")
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("-rename: malformed pair %q (want CAPLname=ctor)", pair)
		}
		out[from] = to
	}
	return out, nil
}
