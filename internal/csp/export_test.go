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
