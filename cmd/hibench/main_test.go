package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments: -exp resolves to catalog entries in catalog
// order; an unknown id, or -csv shared by two CSV-writing studies (whose
// schemas differ), is refused before anything runs.
func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		exp, csv string
		want     string // selected ids, or the error substring after "!"
	}{
		{"all", "", "t1,f1,f3,r1,r2,r3,a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11,pf"},
		{"all", "x.csv", "t1,f1,f3,r1,r2,r3,a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11,pf"},
		{"R1, f3", "", "f3,r1"},
		{"fr,all", "", "t1,f1,f3,r1,r2,r3,a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11,pf,fr"},
		{"f3,fr", "", "f3,fr"},
		{"fr", "x.csv", "fr"},
		{"r4", "", "!unknown -exp id r4"},
		{"f3,zz,r4", "", "!unknown -exp id r4,zz"},
		{"f3,fr", "x.csv", "!-exp selects f3,fr"},
		{"all,rb", "x.csv", "!-exp selects f3,rb"},
	} {
		sel, err := selectExperiments(tc.exp, tc.csv)
		if strings.HasPrefix(tc.want, "!") {
			if err == nil || !strings.Contains(err.Error(), tc.want[1:]) {
				t.Errorf("-exp %q -csv %q: error %v, want one containing %q", tc.exp, tc.csv, err, tc.want[1:])
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q -csv %q: %v", tc.exp, tc.csv, err)
			continue
		}
		var ids []string
		for _, e := range sel {
			ids = append(ids, e.id)
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("-exp %q -csv %q selects %s, want %s", tc.exp, tc.csv, got, tc.want)
		}
	}
}
