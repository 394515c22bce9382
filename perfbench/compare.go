package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain reads two files of saved output (the record lines of
// several runs each, base first) and prints, per workload and metric,
// both medians, the change and the base's own spread. It refuses to
// compare records whose machine fingerprints differ.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench --compare: want two files: base change")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench --compare:", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(stderr, "perfbench --compare: %s holds no records\n", path)
			return 2
		}
		sides[i] = recs
	}
	want := sides[0][0].Fingerprint.Machine
	for i, recs := range sides {
		for _, r := range recs {
			if r.Fingerprint.Machine != want {
				fmt.Fprintf(stderr, "perfbench --compare: refused: %s has a record from %+v, %s one from %+v\n",
					args[i], r.Fingerprint.Machine, args[0], want)
				return 3
			}
		}
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if len(vals[1][k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-12s %-32s %14s %14s %9s %11s  %s\n", "workload", "metric", "base", "change", "delta", "base spread", "unit")
	for _, k := range keys {
		b, c := median(vals[0][k]), median(vals[1][k])
		fmt.Fprintf(stdout, "%-12s %-32s %14.4f %14.4f %+8.2f%% %10.2f%%  %s\n",
			k.workload, k.metric, b, c, 100*(share(c, b)-1), 100*spread(vals[0][k]), units[k])
	}
	return 0
}

// readRecords collects the record lines of a saved output file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, *line.Record)
		}
	}
	return out, sc.Err()
}
