package cspm

import "slices"

// EqualScript reports whether two scripts hold the same declarations
// and assertions in the same order, compared as syntax trees. An
// assertion's Text is a label for reports, not structure, so it is not
// compared.
func EqualScript(a, b *Script) bool {
	return slices.EqualFunc(a.Decls, b.Decls, equalDecl) && slices.EqualFunc(a.Asserts, b.Asserts, equalAssert)
}

func equalDecl(a, b Decl) bool {
	switch x := a.(type) {
	case ChannelDecl:
		y, ok := b.(ChannelDecl)
		return ok && slices.Equal(x.Names, y.Names) && slices.Equal(x.Fields, y.Fields)
	case DatatypeDecl:
		y, ok := b.(DatatypeDecl)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Ctors, y.Ctors, func(c, d CtorDecl) bool {
			return c.Name == d.Name && slices.Equal(c.Fields, d.Fields)
		})
	case NametypeDecl:
		y, ok := b.(NametypeDecl)
		return ok && x.Name == y.Name && equalSet(x.Set, y.Set)
	case ProcDef:
		y, ok := b.(ProcDef)
		return ok && x.Name == y.Name && slices.Equal(x.Params, y.Params) && EqualProc(x.Body, y.Body)
	}
	return a == nil && b == nil
}

func equalAssert(a, b Assertion) bool {
	return a.Kind == b.Kind && EqualProc(a.Spec, b.Spec) && EqualProc(a.Impl, b.Impl)
}

// EqualProc reports whether two process expressions are the same syntax
// tree: the same node types with the same fields, compared recursively.
// A nil and an empty list are equal, as they print alike.
func EqualProc(a, b ProcExpr) bool {
	switch x := a.(type) {
	case StopE:
		_, ok := b.(StopE)
		return ok
	case SkipE:
		_, ok := b.(SkipE)
		return ok
	case CallE:
		y, ok := b.(CallE)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, EqualExpr)
	case PrefixE:
		y, ok := b.(PrefixE)
		return ok && x.Chan == y.Chan && slices.EqualFunc(x.Fields, y.Fields, equalField) && EqualProc(x.Cont, y.Cont)
	case BinProcE:
		y, ok := b.(BinProcE)
		return ok && x.Op == y.Op && equalSet(x.Sync, y.Sync) && EqualProc(x.L, y.L) && EqualProc(x.R, y.R)
	case ReplE:
		y, ok := b.(ReplE)
		return ok && x.Op == y.Op && x.Var == y.Var && equalSet(x.Set, y.Set) && EqualProc(x.Body, y.Body)
	case HideE:
		y, ok := b.(HideE)
		return ok && equalSet(x.Set, y.Set) && EqualProc(x.P, y.P)
	case RenameE:
		y, ok := b.(RenameE)
		return ok && slices.Equal(x.Pairs, y.Pairs) && EqualProc(x.P, y.P)
	case IfE:
		y, ok := b.(IfE)
		return ok && EqualExpr(x.Cond, y.Cond) && EqualProc(x.Then, y.Then) && EqualProc(x.Else, y.Else)
	case GuardE:
		y, ok := b.(GuardE)
		return ok && EqualExpr(x.Cond, y.Cond) && EqualProc(x.P, y.P)
	}
	return a == nil && b == nil
}

// EqualExpr reports whether two value expressions are the same syntax
// tree.
func EqualExpr(a, b ExprE) bool {
	switch x := a.(type) {
	case IntE:
		y, ok := b.(IntE)
		return ok && x == y
	case BoolE:
		y, ok := b.(BoolE)
		return ok && x == y
	case IdentE:
		y, ok := b.(IdentE)
		return ok && x == y
	case DottedE:
		y, ok := b.(DottedE)
		return ok && x.Head == y.Head && slices.EqualFunc(x.Args, y.Args, EqualExpr)
	case BinE:
		y, ok := b.(BinE)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case UnE:
		y, ok := b.(UnE)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case MemberE:
		y, ok := b.(MemberE)
		return ok && EqualExpr(x.Elem, y.Elem) && equalSet(x.Set, y.Set)
	}
	return a == nil && b == nil
}

// equalField compares two prefix fields. Var and In belong to an input
// field, Expr to a dot or output field; each is compared whatever the
// kind, as each is empty where it does not belong.
func equalField(a, b FieldE) bool {
	return a.Kind == b.Kind && a.Var == b.Var && equalSet(a.In, b.In) && EqualExpr(a.Expr, b.Expr)
}

// equalSet compares two set expressions; nil (an absent restriction or
// synchronisation set) equals only nil.
func equalSet(a, b SetExpr) bool {
	switch x := a.(type) {
	case ProdSet:
		y, ok := b.(ProdSet)
		return ok && slices.Equal(x.Channels, y.Channels)
	case ExplicitSet:
		y, ok := b.(ExplicitSet)
		return ok && slices.EqualFunc(x.Elems, y.Elems, EqualExpr)
	case RangeSet:
		y, ok := b.(RangeSet)
		return ok && x == y
	case SetRef:
		y, ok := b.(SetRef)
		return ok && x == y
	case SetUnion:
		y, ok := b.(SetUnion)
		return ok && equalSet(x.L, y.L) && equalSet(x.R, y.R)
	}
	return a == nil && b == nil
}
