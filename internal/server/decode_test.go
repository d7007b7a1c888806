package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// TestQueryStringRejectsNonFinite: every float query-string parameter
// refuses NaN and ±Inf with a 400 in the one query-string error format,
// "invalid <name>=<value>: <reason>". Before the shared decoder these
// were accepted: epsilon=Inf made an approx query report convergence over
// the whole uncertain space (and cached that answer), and the debug
// endpoints silently treated NaN as a filter or window.
func TestQueryStringRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 60, 3, 2)

	for _, tc := range []struct{ path, param string }{
		{"/v1/kspr?dataset=ind&focal=1&k=3&algorithm=approx", "epsilon"},
		{"/v1/debug:history?series=qps", "since_sec"},
		{"/v1/debug:history?series=qps", "step_sec"},
		{"/v1/debug:flight?limit=1", "min_latency_ms"},
	} {
		for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
			resp, err := http.Get(ts.URL + tc.path + "&" + tc.param + "=" + url.QueryEscape(bad))
			if err != nil {
				t.Fatal(err)
			}
			var body errorResponse
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s=%s: decoding error body: %v", tc.param, bad, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s=%s: status %d, want 400", tc.path, tc.param, bad, resp.StatusCode)
			}
			if want := "invalid " + tc.param + "=\"" + bad + "\": "; !strings.HasPrefix(body.Error, want) {
				t.Errorf("%s=%s: error %q, want prefix %q", tc.param, bad, body.Error, want)
			}
		}
	}
}
