package ota

import "repro/internal/candb"

// DBCSource is the CAN database of the simulated update network: the
// Table II message types with the identifiers and sending nodes the
// CAPL programs use. candb.NewTable with MessageRename turns it into the
// frame ↔ event table every bus-trace consumer projects through (the
// lowered message name is the CAPL variable, MessageRename gives the
// X.1373 constructor, the sender gives the channel): the learner maps
// {VMG: send, ECU: rec}, the conformance harness the delivered sides
// {VMG: ObservedToECU, ECU: ObservedToVMG}.
const DBCSource = `VERSION "X.1373 demo"
BU_: VMG ECU

BO_ 257 SwInventoryReq: 8 VMG
 SG_ Pad : 0|8@1+ (1,0) [0|255] "" ECU

BO_ 258 SwInventoryRpt: 8 ECU
 SG_ Pad : 0|8@1+ (1,0) [0|255] "" VMG

BO_ 259 ApplyUpdateReq: 8 VMG
 SG_ Seq : 0|8@1+ (1,0) [0|1] "" ECU

BO_ 260 UpdateResultRpt: 8 ECU
 SG_ Seq : 0|8@1+ (1,0) [0|1] "" VMG
`

// Database parses DBCSource.
func Database() (*candb.Database, error) {
	return candb.Parse(DBCSource)
}
