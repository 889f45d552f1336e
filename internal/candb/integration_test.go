package candb_test

import (
	"context"
	"testing"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
)

// TestSignalsOverSimulatedBus closes the loop between the CANdb layer
// and the CAPL runtime: a sensor node encodes a speed signal into its
// frame payload byte by byte, and the frame observed on the simulated
// bus decodes to the expected physical value through the database's
// signal definition.
func TestSignalsOverSimulatedBus(t *testing.T) {
	const dbcSrc = `VERSION "1"
BU_: Sensor Display

BO_ 512 VehicleSpeed: 8 Sensor
 SG_ Speed : 0|12@1+ (0.25,0) [0|1023] "km/h" Display
 SG_ Valid : 12|1@1+ (1,0) [0|1] "" Display
`
	db, err := candb.Parse(dbcSrc)
	if err != nil {
		t.Fatal(err)
	}
	msg, ok := db.MessageByName("VehicleSpeed")
	if !ok {
		t.Fatal("VehicleSpeed missing")
	}
	speed, _ := msg.Signal("Speed")
	valid, _ := msg.Signal("Valid")

	// The sensor encodes raw 400 (= 100 km/h at factor 0.25) into bits
	// 0..11 and sets the valid flag at bit 12.
	const sensorSrc = `
variables
{
  message 0x200 vehicleSpeed;
}
on start
{
  int raw;
  raw = 400;
  vehicleSpeed.byte(0) = raw & 0xFF;
  vehicleSpeed.byte(1) = ((raw >> 8) & 0x0F) | 0x10;  // valid bit at bit 12
  vehicleSpeed.DLC = 8;
  output(vehicleSpeed);
}
`
	sim := canoe.NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("Sensor", sensorSrc); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	trace := sim.Trace()
	if len(trace) != 1 {
		t.Fatalf("frames on bus = %d, want 1", len(trace))
	}
	frame := trace[0].Frame
	if frame.ID != msg.ID {
		t.Fatalf("frame id = %#x, want %#x", frame.ID, msg.ID)
	}
	if got := speed.Decode(frame.Data); got != 100 {
		t.Errorf("decoded speed = %v km/h, want 100", got)
	}
	if got := valid.DecodeRaw(frame.Data); got != 1 {
		t.Errorf("valid flag = %d, want 1", got)
	}
	// Round trip: encode through the database and compare payloads.
	reencoded := make([]byte, 8)
	if err := speed.Encode(reencoded, 100); err != nil {
		t.Fatal(err)
	}
	if err := valid.EncodeRaw(reencoded, 1); err != nil {
		t.Fatal(err)
	}
	for i := range reencoded {
		if reencoded[i] != frame.Data[i] {
			t.Errorf("byte %d: database encode %#x, CAPL encode %#x", i, reencoded[i], frame.Data[i])
		}
	}
}
