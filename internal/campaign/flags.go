package campaign

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
)

// Flags is the -seed / -workers / -format flag set the campaign CLIs
// share. Register with AddFlags, call Validate once parsing is done,
// and print the report with Write.
type Flags struct {
	// Seed is the campaign master seed (default 42).
	Seed int64
	// Workers sizes the campaign pool; 0 means all cores.
	Workers int
	// Format is the report format: text or json.
	Format string
}

// AddFlags registers the flag set on fs; unit names what -workers runs
// concurrently ("schedules", "scenarios", ...).
func (f *Flags) AddFlags(fs *flag.FlagSet, unit string) {
	fs.Int64Var(&f.Seed, "seed", 42, "campaign master seed")
	fs.IntVar(&f.Workers, "workers", 0,
		"concurrent "+unit+" (0: all cores); reports are byte-identical at any worker count")
	fs.StringVar(&f.Format, "format", "text", "report format: text or json")
}

// Validate rejects an unknown format and a negative worker count.
func (f Flags) Validate() error {
	if f.Format != "text" && f.Format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", f.Format)
	}
	if f.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", f.Workers)
	}
	return nil
}

// Write prints a report in the selected format. Both renderings are
// written verbatim; data is the report rendered by JSON.
func (f Flags) Write(w io.Writer, text string, data []byte) error {
	var err error
	if f.Format == "json" {
		_, err = w.Write(data)
	} else {
		_, err = io.WriteString(w, text)
	}
	return err
}

// JSON renders a campaign report as indented, newline-terminated JSON.
func JSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
