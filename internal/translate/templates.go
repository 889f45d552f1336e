package translate

import "repro/internal/st"

// templates is the StringTemplate group that renders the extracted
// model as CSPm text, mirroring the template set described in section
// VI of the paper (header, channel declarations, event procedure
// processes). Group.Render only reads the group, so one serves every
// translation.
var templates = func() *st.Group {
	g := st.NewGroup()
	g.Define("script",
		`-- CSPm implementation model extracted from CAPL node "$node$"
-- Generated by capl2cspm; do not edit.

$if(datatypes)$$datatypes; separator="\n"$

$endif$$channels; separator="\n"$

$defs:def(); separator="\n"$
`)
	g.Define("def", "$name$ = $body$")
	g.Define("datatype", "datatype $name$ = $ctors; separator=\" | \"$")
	g.Define("channel", "channel $names; separator=\", \"$$if(type)$ : $type$$endif$")
	return g
}()
