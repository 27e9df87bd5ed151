package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// apiFlagRow matches one row of API.md's transnserve flag table and
// captures the flag name.
var apiFlagRow = regexp.MustCompile("^\\| `-([a-z-]+)` \\|")

// TestFlagsMatchAPITable keeps API.md's transnserve flag table and the
// registered flags in step: every registered flag has a row and every
// row names a registered flag.
func TestFlagsMatchAPITable(t *testing.T) {
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "Flags (all optional except `-graph`/`-model`):")
	if !ok {
		t.Fatal("API.md has no transnserve flag table")
	}
	table, _, _ = strings.Cut(strings.TrimLeft(table, "\n"), "\n\n")
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		if m := apiFlagRow.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}

	var registered []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) {
		registered = append(registered, f.Name)
	})
	sort.Strings(documented)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("API.md flag table lists %v; transnserve registers %v", documented, registered)
	}
}
