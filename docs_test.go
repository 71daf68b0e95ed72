package parascope

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"parascope/internal/cluster"
	"parascope/internal/server"
)

// metricName matches a pedd_ or pedgw_ metric name and the character
// after it, so the head of a "/"-list can be told from a full name; a
// "_*" pattern does not match at all.
var metricName = regexp.MustCompile(`\b((?:pedd|pedgw)_[a-z0-9_]*[a-z0-9])([^a-z0-9_]|$)`)

// TestDocsNameRealMetricFamilies: every pedd_/pedgw_ family DESIGN.md
// and README.md name in full is one the daemons serve. Members of a
// "/"-list and "_*" patterns are not full names; histogram sample
// suffixes name their family.
func TestDocsNameRealMetricFamilies(t *testing.T) {
	families := map[string]bool{}
	var scrape strings.Builder
	if err := server.NewMetrics().WriteProm(&scrape); err != nil {
		t.Fatal(err)
	}
	if err := cluster.NewMetrics().WriteProm(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metricName.FindAllStringSubmatch(string(text), -1) {
			if m[2] == "/" {
				continue
			}
			family := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suffix)
			}
			if !families[family] {
				t.Errorf("%s names %s, which no registry serves", doc, m[1])
			}
		}
	}
}
