package csp

// ReinternKeys interns every node of n, in ID order, into a fresh
// interner and returns that interner's node table. For a table
// DecodeNodes accepted it must equal the input keys.
func ReinternKeys(n *Nodes) [][]byte {
	in := NewInterner()
	for _, t := range n.terms {
		switch x := t.(type) {
		case Process:
			in.Process(x)
		case CommField:
			in.field(x)
		case Expr:
			in.expr(x)
		case Value:
			in.value(x)
		case Event:
			in.Event(x)
		case *EventSet:
			in.EventSet(x)
		case map[string]string:
			in.Mapping(x)
		}
	}
	return in.Keys()
}

// NewTestContext is testContext, for the external tests.
var NewTestContext = testContext

// The composite node tags, for the external tests' reference interner.
const (
	TagExtChoice = itagExtChoice
	TagSeq       = itagSeq
	TagPar       = itagPar
	TagHide      = itagHide
	TagRename    = itagRename
)

// IsCompositeKey reports whether a node-table key is a composite's:
// one the interner indexes by tag and child IDs, not by its bytes.
func IsCompositeKey(k []byte) bool {
	switch k[0] {
	case itagExtChoice, itagSeq, itagPar, itagHide, itagRename:
		return true
	}
	return false
}
