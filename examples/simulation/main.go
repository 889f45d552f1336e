// Simulation: run the case-study CAPL node programs on the simulated
// CAN bus (the CANoe stand-in), print the measured bus trace, and
// cross-validate it against the extracted CSP model — closing the loop
// between simulation and formal verification.
//
//	go run ./examples/simulation
package main

import (
	"fmt"
	"log"

	"repro/internal/canbus"
	"repro/internal/canoe"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/ota"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Simulated CANoe measurement (2 ms at 500 kbit/s) ==")
	sim := canoe.NewSimulation(canbus.Config{BitRate: 500_000})
	if _, err := sim.AddNode("ECU", ota.ECUSource); err != nil {
		return err
	}
	if _, err := sim.AddNode("VMG", ota.VMGSource); err != nil {
		return err
	}
	if err := sim.Start(); err != nil {
		return err
	}
	if err := sim.Run(2 * canbus.Millisecond); err != nil {
		return err
	}
	for _, tf := range sim.Trace() {
		fmt.Printf("  %6d us  %s\n", tf.At, tf.Frame)
	}
	fmt.Printf("bus load: %.1f%%\n", sim.Bus.Load()*100)

	fmt.Println("\n== Cross-validation against the extracted CSP model ==")
	pipeline := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "ECU", Source: ota.ECUSource, In: "send", Out: "rec", Rename: ota.MessageRename},
			{Name: "VMG", Source: ota.VMGSource, In: "rec", Out: "send", Rename: ota.MessageRename},
		},
		Spec: "SYSTEM = VMG [| {| send, rec |} |] ECU\nassert SYSTEM :[deadlock free]\n",
	}
	report, err := pipeline.Run()
	if err != nil {
		return err
	}
	db, err := ota.Database()
	if err != nil {
		return err
	}
	observed, err := pipeline.CrossValidate(report.Model, csp.Call("SYSTEM"), db, 2*canbus.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("observed %d events; trace is a trace of the model: yes\n", len(observed))
	fmt.Println("  ", observed)
	return nil
}
