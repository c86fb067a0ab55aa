package aliaslimit_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"

	"aliaslimit"
)

// ExampleScenarioNames shows the head of the scenario catalog.
func ExampleScenarioNames() {
	fmt.Println(strings.Join(aliaslimit.ScenarioNames()[:3], ", "))
	// Output: baseline, ipv6-heavy, lossy
}

// ExampleRunScenario runs the baseline preset on a tiny world and shows the
// shape of the ground-truth scorecard.
func ExampleRunScenario() {
	res, err := aliaslimit.RunScenario("baseline", aliaslimit.ScenarioOptions{
		Common: aliaslimit.Common{Scale: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s scored %d protocols against ground truth\n", res.Scenario, len(res.Protocols))
	// Output: baseline scored 3 protocols against ground truth
}

// ExampleRunLongitudinal runs two snapshot→churn→scan rounds over one
// persistent tiny world and shows the shape of the longitudinal scorecard:
// per-epoch scores plus the metrics only a time axis can produce.
func ExampleRunLongitudinal() {
	res, err := aliaslimit.RunLongitudinal("baseline", aliaslimit.LongitudinalOptions{
		ScenarioOptions: aliaslimit.ScenarioOptions{
			Common: aliaslimit.Common{Scale: 0.05},
		},
		Epochs: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s ran %d epochs: %d survival points, %d merge strategies\n",
		res.Scenario, len(res.Epochs), len(res.Survival), len(res.Merges))
	// Output: baseline ran 2 epochs: 2 survival points, 3 merge strategies
}

// ExampleServeAliasd runs the resolution daemon on a loopback port, streams
// three SSH observations into a tenant session, and reads the live alias
// sets back: two addresses presenting the same host key land in one set,
// the singleton is filtered out. Cancelling the context drains the daemon.
func ExampleServeAliasd() {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- aliaslimit.ServeAliasd(ctx, "127.0.0.1:0", aliaslimit.AliasdConfig{}, ready)
	}()
	base := "http://" + <-ready

	post := func(path, body string, out any) {
		resp, err := http.Post(base+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	var sess struct {
		ID string `json:"id"`
	}
	post("/v1/sessions", `{}`, &sess)

	var ingest struct {
		Accepted int `json:"accepted"`
	}
	post("/v1/ingest?session="+sess.ID, `{"addr":"192.0.2.1","proto":"SSH","digest":"hostkey-a"}
{"addr":"192.0.2.2","proto":"SSH","digest":"hostkey-a"}
{"addr":"198.51.100.9","proto":"SSH","digest":"hostkey-b"}
`, &ingest)
	post("/v1/flush?session="+sess.ID, "", nil)

	resp, err := http.Get(base + "/v1/sets?session=" + sess.ID + "&view=ssh")
	if err != nil {
		log.Fatal(err)
	}
	var sets struct {
		Sets [][]string `json:"sets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sets); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	fmt.Printf("session %s ingested %d observations; ssh alias sets: %v\n",
		sess.ID, ingest.Accepted, sets.Sets)
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	// Output: session s1 ingested 3 observations; ssh alias sets: [[192.0.2.1 192.0.2.2]]
}
