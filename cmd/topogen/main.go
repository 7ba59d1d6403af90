// Command topogen synthesizes Meta-style region topologies and emits them
// as NPD documents for cmd/klotski, or prints their statistics.
//
// Usage:
//
//	topogen -suite E -scale 0.25 [-o region.json]   # a Table-3 case
//	topogen -dcs 3 -pods 8 -rsw 6 -planes 4 -ssw 8 -grids 4 \
//	        -migration hgrid-v1-v2 [-o region.json] # a custom region
//	topogen -suite E -scale 0.25 -stats             # sizes only
//
// A flag the chosen form does not read, or a positional argument, is refused.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"klotski"
	"klotski/internal/gen"
	"klotski/internal/npd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite   = fs.String("suite", "", "Table-3 scenario to emit: "+strings.Join(klotski.SuiteNames(), ", "))
		scale   = fs.Float64("scale", 0.25, "topology scale for -suite (1 = paper-sized)")
		outPath = fs.String("o", "", "write the NPD document here (default stdout)")
		stats   = fs.Bool("stats", false, "print topology statistics instead of NPD")

		// Custom-region flags (used when -suite is empty).
		mig    = fs.String("migration", npd.MigrationHGRID, "migration kind: hgrid-v1-v2, ssw-forklift, dmag")
		dcs    = fs.Int("dcs", 2, "datacenter buildings")
		pods   = fs.Int("pods", 4, "pods per building")
		rsw    = fs.Int("rsw", 4, "rack switches per pod")
		planes = fs.Int("planes", 4, "spine planes")
		ssw    = fs.Int("ssw", 4, "spine switches per plane")
		grids  = fs.Int("grids", 4, "HGRID grids")
		fadu   = fs.Int("fadu", 4, "FADUs per grid")
		fauu   = fs.Int("fauu", 2, "FAUUs per grid")
		ebs    = fs.Int("ebs", 4, "EB routers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: every input is named by a flag", fs.Arg(0))
	}
	var errs []error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case *suite != "" && slices.Contains(customFlags, f.Name):
			errs = append(errs, fmt.Errorf("-suite does not read -%s: it describes a custom region", f.Name))
		case *suite == "" && f.Name == "scale":
			errs = append(errs, errors.New("-scale is read only with -suite"))
		case *stats && f.Name == "o":
			errs = append(errs, errors.New("-stats prints statistics and writes no document, so it does not read -o"))
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	var (
		s   *klotski.Scenario
		doc *npd.Document
		err error
	)
	if *suite != "" {
		if s, err = klotski.Suite(*suite, *scale); err != nil {
			return err
		}
		doc = npd.FromRegionParams(s.Name, s.Region.Params)
		doc.Migration = suiteMigration(*suite)
	} else {
		params := gen.RegionParams{
			Name: "custom-region",
			HGRID: gen.HGRIDParams{
				Grids: *grids, FADUPerGrid: *fadu, FAUUPerGrid: *fauu,
			},
			EBs: *ebs, DRs: (*ebs + 1) / 2, EBBs: 2,
		}
		for d := 0; d < *dcs; d++ {
			params.DCs = append(params.DCs, gen.FabricParams{
				Pods: *pods, RSWPerPod: *rsw, Planes: *planes, SSWPerPlane: *ssw,
			})
		}
		doc = npd.FromRegionParams(params.Name, params)
		doc.Migration = &npd.MigrationPart{Kind: *mig}
	}
	if doc.Migration.Kind == npd.MigrationDMAG {
		doc.MA = &npd.MAPart{PerEB: 2}
	}
	if *stats {
		if s == nil {
			if s, err = doc.Scenario(); err != nil {
				return err
			}
		}
		printStats(stdout, s)
		return nil
	}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("generated document invalid: %w", err)
	}

	if *outPath == "" {
		return doc.Encode(stdout)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := doc.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// customFlags describe a custom region; only a run without -suite reads them.
var customFlags = strings.Fields("migration dcs pods rsw planes ssw grids fadu fauu ebs")

// suiteMigration reproduces the migration part matching a Table-3 case.
func suiteMigration(suite string) *npd.MigrationPart {
	switch suite {
	case "E-DMAG":
		return &npd.MigrationPart{Kind: npd.MigrationDMAG}
	case "E-SSW":
		return &npd.MigrationPart{Kind: npd.MigrationForklift, DC: 0}
	default:
		return &npd.MigrationPart{Kind: npd.MigrationHGRID}
	}
}

func printStats(w io.Writer, s *klotski.Scenario) {
	st := s.Task.Topo.Stats()
	ts := s.Task.Stats()
	fmt.Fprintf(w, "%s: %s\n", s.Name, s.Description)
	fmt.Fprintf(w, "  switches: %d active / %d universe\n", st.Switches, st.TotalSwitches)
	fmt.Fprintf(w, "  circuits: %d up / %d universe, %.1f Tbps\n", st.Circuits, st.TotalCircuits, st.Capacity)
	fmt.Fprintf(w, "  migration: %d switch ops in %d blocks of %d types, %.1f Tbps affected\n",
		ts.Switches, ts.Actions, ts.ActionTypes, ts.AffectedTbps)
	fmt.Fprintf(w, "  demands: %d entries, %.1f Tbps total, base util %.2f\n",
		s.Task.Demands.Len(), s.Task.Demands.Total(), s.BaseUtil)
}
