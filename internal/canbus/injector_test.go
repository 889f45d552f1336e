package canbus

import (
	"errors"
	"reflect"
	"testing"
)

func TestCloneNilDataStaysNil(t *testing.T) {
	f := Frame{ID: 0x101, Extended: true}
	c := f.Clone()
	if c.Data != nil {
		t.Errorf("Clone of nil payload produced non-nil Data %v", c.Data)
	}
	if !reflect.DeepEqual(f, c) {
		t.Errorf("clone %+v not deep-equal to original %+v", c, f)
	}
}

func TestCloneCopiesPayload(t *testing.T) {
	f := Frame{ID: 0x101, Data: []byte{1, 2, 3}}
	c := f.Clone()
	if !reflect.DeepEqual(f, c) {
		t.Errorf("clone %+v not deep-equal to original %+v", c, f)
	}
	c.Data[0] = 99
	if f.Data[0] != 1 {
		t.Error("clone shares backing array with original")
	}
}

// TestDropHookDirect drives the Drop hook without any CAPL machinery:
// the hook sees every frame with its delivery timestamp and may
// selectively lose it.
func TestDropHookDirect(t *testing.T) {
	var seen []Frame
	inj := &Injector{Drop: func(_ Time, f Frame) bool {
		seen = append(seen, f.Clone())
		return f.ID == 0x2
	}}
	bus := New(Config{Injector: inj})
	tx := bus.Attach("TX", ReceiverFunc(func(Time, Frame) {}))
	var delivered []uint32
	bus.Attach("RX", ReceiverFunc(func(_ Time, f Frame) { delivered = append(delivered, f.ID) }))

	for _, id := range []uint32{1, 2, 3} {
		if err := bus.Transmit(tx, Frame{ID: id, Data: []byte{byte(id)}}); err != nil {
			t.Fatal(err)
		}
	}
	bus.RunAll(100)
	if len(seen) != 3 {
		t.Errorf("drop hook saw %d frames, want 3", len(seen))
	}
	if !reflect.DeepEqual(delivered, []uint32{1, 3}) {
		t.Errorf("delivered %v, want [1 3]", delivered)
	}
	if s := bus.Stats(); s.FramesDropped != 1 {
		t.Errorf("FramesDropped = %d, want 1", s.FramesDropped)
	}
}

// TestCorruptHookDirect checks the legacy (no error confinement)
// corrupt path: the mutation is delivered as-is and counted.
func TestCorruptHookDirect(t *testing.T) {
	inj := &Injector{Corrupt: func(_ Time, f Frame) Frame {
		f.Data[0] ^= 0x80
		return f
	}}
	bus := New(Config{Injector: inj})
	tx := bus.Attach("TX", ReceiverFunc(func(Time, Frame) {}))
	var got []byte
	bus.Attach("RX", ReceiverFunc(func(_ Time, f Frame) { got = append([]byte(nil), f.Data...) }))
	if err := bus.Transmit(tx, Frame{ID: 1, Data: []byte{0x01}}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)
	if !reflect.DeepEqual(got, []byte{0x81}) {
		t.Errorf("delivered payload %v, want [0x81]", got)
	}
	if s := bus.Stats(); s.FramesCorrupted != 1 {
		t.Errorf("FramesCorrupted = %d, want 1", s.FramesCorrupted)
	}
}

// TestCorruptHookChangesFrameLength mutates the payload length in both
// directions: growing past the CAN limit is clamped to MaxDataLen,
// shrinking is delivered verbatim.
func TestCorruptHookChangesFrameLength(t *testing.T) {
	grow := true
	inj := &Injector{Corrupt: func(_ Time, f Frame) Frame {
		if grow {
			f.Data = append(f.Data, make([]byte, 8)...) // 12 bytes
		} else {
			f.Data = f.Data[:1]
		}
		return f
	}}
	bus := New(Config{Injector: inj})
	tx := bus.Attach("TX", ReceiverFunc(func(Time, Frame) {}))
	var lens []int
	bus.Attach("RX", ReceiverFunc(func(_ Time, f Frame) { lens = append(lens, len(f.Data)) }))

	if err := bus.Transmit(tx, Frame{ID: 1, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)
	grow = false
	if err := bus.Transmit(tx, Frame{ID: 2, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)

	if !reflect.DeepEqual(lens, []int{MaxDataLen, 1}) {
		t.Errorf("delivered payload lengths %v, want [%d 1]", lens, MaxDataLen)
	}
}

// TestInjectorInstalledMidSimulation starts a measurement with an empty
// injector and arms the fault hooks only after traffic has flowed.
func TestInjectorInstalledMidSimulation(t *testing.T) {
	inj := &Injector{}
	bus := New(Config{Injector: inj})
	tx := bus.Attach("TX", ReceiverFunc(func(Time, Frame) {}))
	var delivered []uint32
	bus.Attach("RX", ReceiverFunc(func(_ Time, f Frame) { delivered = append(delivered, f.ID) }))

	if err := bus.Transmit(tx, Frame{ID: 1}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)

	// Mid-simulation: arm a drop-everything hook.
	inj.Drop = func(Time, Frame) bool { return true }
	if err := bus.Transmit(tx, Frame{ID: 2}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)

	// Disarm again: traffic resumes.
	inj.Drop = nil
	if err := bus.Transmit(tx, Frame{ID: 3}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)

	if !reflect.DeepEqual(delivered, []uint32{1, 3}) {
		t.Errorf("delivered %v, want [1 3]", delivered)
	}
	if s := bus.Stats(); s.FramesDropped != 1 {
		t.Errorf("FramesDropped = %d, want 1", s.FramesDropped)
	}
}

// TestTamperHookEvadesConfinement: tampered mutations are delivered
// even with error confinement on (they model CRC-evading attacks), in
// contrast to Corrupt which the CRC catches.
func TestTamperHookEvadesConfinement(t *testing.T) {
	inj := &Injector{Tamper: func(_ Time, f Frame) Frame {
		f.ID ^= 0x200
		return f
	}}
	bus := New(Config{Injector: inj, ErrorConfinement: true})
	tx := bus.Attach("TX", ReceiverFunc(func(Time, Frame) {}))
	var got []uint32
	bus.Attach("RX", ReceiverFunc(func(_ Time, f Frame) { got = append(got, f.ID) }))
	if err := bus.Transmit(tx, Frame{ID: 0x101, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(100)
	if !reflect.DeepEqual(got, []uint32{0x301}) {
		t.Errorf("delivered IDs %v, want [0x301]", got)
	}
	if s := bus.Stats(); s.ErrorFrames != 0 {
		t.Errorf("tampering raised %d error frames, want 0", s.ErrorFrames)
	}
	if errors.Is(bus.Transmit(tx, Frame{ID: 1}), ErrBusOff) {
		t.Error("tampering must not degrade the transmitter")
	}
}

// TestReplayTapStopsAtCap replays every completed transmission, the
// replay tap's own included: each replay is replayed again, and the
// cascade stops once the tap has fabricated its cap of frames.
func TestReplayTapStopsAtCap(t *testing.T) {
	const limit = 5
	inj := &Injector{}
	bus := New(Config{Injector: inj})
	tx := bus.Attach("tx", ReceiverFunc(func(Time, Frame) {}))
	delivered := 0
	bus.Attach("rx", ReceiverFunc(func(Time, Frame) { delivered++ }))
	rt := bus.AttachReplay("replay", ReceiverFunc(func(Time, Frame) {}), limit)
	inj.Observe = func(at Time, f Frame) { rt.Replay(at+100*Microsecond, f) }
	if err := bus.Transmit(tx, Frame{ID: 0x10, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	bus.RunAll(1000)
	if delivered != 1+limit {
		t.Fatalf("rx saw %d frames, want the original and %d replays", delivered, limit)
	}
	if rt.TxCount != limit {
		t.Errorf("replay tap transmitted %d frames, want %d", rt.TxCount, limit)
	}
}
