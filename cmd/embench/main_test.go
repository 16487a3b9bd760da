package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// sectionIDs are the sweep's sections in output order. IM-PARITY counts
// comparisons and appears in the markdown only.
var sectionIDs = []string{
	"T1-R-SPL", "T1-L-SPL", "T1-2-SPL", "T1-R-PAR", "T1-L-PAR", "T1-L-PAR flatness",
	"T1-2-PAR", "THM4-SEP", "SORT-BASE", "INTERMIX", "RED-3", "MACHINE-SWEEP", "IM-PARITY",
}

// TestTable1Quick runs the sweep at -quick sizes in both output forms: every
// section must appear, every row must have done I/O, and no row may beat its
// information-theoretic floor.
func TestTable1Quick(t *testing.T) {
	o := flagOptions()
	o.n = quickN

	var md bytes.Buffer
	if err := table1(&md, o); err != nil {
		t.Fatal(err)
	}
	for _, id := range sectionIDs {
		if !strings.Contains(md.String(), "\n## "+id+":") {
			t.Errorf("markdown lacks section %s", id)
		}
	}

	o.json = true
	var js bytes.Buffer
	if err := table1(&js, o); err != nil {
		t.Fatal(err)
	}
	var rows []row
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatalf("decode -json output: %v", err)
	}
	seen := map[string]int{}
	for _, r := range rows {
		id, _, _ := strings.Cut(r.Section, ":")
		seen[id]++
		if r.IOs <= 0 {
			t.Errorf("%s %s: ios = %d, want > 0", id, r.Label, r.IOs)
		}
		if r.LB > 0 && r.RatioLB < 1 {
			t.Errorf("%s %s: %d I/Os beat the floor %.0f (ratioLB %.2f)", id, r.Label, r.IOs, r.LB, r.RatioLB)
		}
	}
	for _, id := range sectionIDs[:len(sectionIDs)-1] {
		if seen[id] == 0 {
			t.Errorf("-json output has no %s rows", id)
		}
	}
	if len(seen) != len(sectionIDs)-1 {
		t.Errorf("-json output has sections %v, want the %d of %v before IM-PARITY", seen, len(sectionIDs)-1, sectionIDs)
	}
}

// TestTable1RejectsNegativeN: a negative input size is a parameter error,
// not a panic in the workload generator.
func TestTable1RejectsNegativeN(t *testing.T) {
	o := flagOptions()
	o.n = -5
	var md bytes.Buffer
	if err := table1(&md, o); err == nil || !strings.Contains(err.Error(), "-n -5") {
		t.Errorf("table1 with n = -5: err = %v, want a -n rejection", err)
	}
}
