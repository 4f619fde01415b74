package microlink_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"microlink"
	"microlink/internal/httpapi"
)

// TestMetricCatalogueMatchesExposition keeps README's metric catalogue
// and the exported metric families from drifting apart, as
// TestLockOrderMatchesDesignDoc does for DESIGN.md's lock order: a fully
// wired server — ingest pipeline, bound data directory, one request per
// endpoint — is scraped, every exported microlink_* family must be named
// in the catalogue, and every name in the catalogue must be exported. A
// catalogue entry ending in * (microlink_runtime_*) matches as a prefix
// and need not be exported: only linkd starts the runtime collector.
func TestMetricCatalogueMatchesExposition(t *testing.T) {
	names, prefixes := readCatalogue(t)
	exported := scrapeFamilies(t)

	var missing []string
	for fam := range exported {
		if names[fam] {
			continue
		}
		covered := false
		for _, p := range prefixes {
			covered = covered || strings.HasPrefix(fam, p)
		}
		if !covered {
			missing = append(missing, fam)
		}
	}
	sort.Strings(missing)
	for _, fam := range missing {
		t.Errorf("%s is exported but not in README's metric catalogue", fam)
	}
	var stale []string
	for name := range names {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("README's metric catalogue names %s, which a wired server does not export", name)
	}
}

// readCatalogue returns the metric names in the first column of README's
// "Metric catalogue" table, labels stripped, and the prefixes of its
// wildcard entries.
func readCatalogue(t *testing.T) (names map[string]bool, prefixes []string) {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "Metric catalogue") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal(`README.md: anchor "Metric catalogue" not found`)
	}
	code := regexp.MustCompile("`([^`]+)`")
	names = map[string]bool{}
	inTable := false
	for _, l := range lines[start:] {
		if !strings.HasPrefix(l, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(l, "|")
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			name, _, _ := strings.Cut(m[1], "{")
			switch {
			case !strings.HasPrefix(name, "microlink_"):
			case strings.HasSuffix(name, "*"):
				prefixes = append(prefixes, strings.TrimSuffix(name, "*"))
			default:
				names[name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("README.md: the metric catalogue names no metric; parsing is broken")
	}
	return names, prefixes
}

// scrapeFamilies builds a fully wired server, sends one request to every
// endpoint, and returns the microlink_* families its /metrics declares.
func scrapeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	w := microlink.Generate(microlink.WorldParams{Seed: 11, Users: 150, Topics: 4, EntitiesPerTopic: 6, Days: 10})
	sys := microlink.Build(w, microlink.Options{TruthComplement: true, Reach: microlink.ReachStreaming})
	if _, err := sys.Snapshot(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	pipe, err := sys.StartIngest(microlink.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := pipe.Close(ctx); err != nil {
			t.Error(err)
		}
		if err := sys.ClosePersist(); err != nil {
			t.Error(err)
		}
	}()
	var surfaces []string
	w.KB.EachSurface(func(form string, _ []microlink.EntityID) { surfaces = append(surfaces, form) })
	sort.Strings(surfaces)
	sf := url.QueryEscape(surfaces[0])

	srv := httpapi.New(sys, httpapi.WithLogger(func(string, ...any) {}))
	for _, r := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/v1/link?user=1&mention=" + sf, ""},
		{"POST", "/v1/link/batch", `{"queries":[{"user":1,"mention":"` + surfaces[0] + `"}]}`},
		{"GET", "/v1/topk?user=1&mention=" + sf, ""},
		{"GET", "/v1/search?user=1&q=" + sf, ""},
		{"POST", "/v1/tweet", `{"id":900001,"user":1,"text":"` + surfaces[0] + `","feedback":true}`},
		{"POST", "/v1/confirm", `{"tweet":900002,"user":1,"entity":0}`},
		{"POST", "/v1/ingest/tweet", `{"id":900003,"user":2,"text":"` + surfaces[0] + `"}`},
		{"POST", "/v1/ingest/follow", `{"follower":1,"followee":2}`},
		{"GET", "/v1/stats", ""},
		{"POST", "/v1/admin/snapshot", ""},
		{"GET", "/v1/admin/status", ""},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s = %d: %s", r.method, r.path, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	exported := map[string]bool{}
	for _, l := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "microlink_") {
			exported[f[2]] = true
		}
	}
	if len(exported) == 0 {
		t.Fatal("/metrics declares no microlink_* family; scraping is broken")
	}
	return exported
}
