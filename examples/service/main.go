// Service: run the simulator as a job server and talk to it over HTTP
// — submit a run, poll it, fetch the deterministic result document,
// then submit the same configuration again and watch it come back from
// the result cache byte-identically without re-running.
//
//	go run ./examples/service
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"cagc/internal/serve"
)

func main() {
	// The same engine cagcserve wraps: bounded admission, result cache.
	s := serve.New(serve.Options{QueueDepth: 8, CacheEntries: 64})
	defer s.Shutdown(context.Background())

	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("service listening on", base)

	// Submit: the JSON body reuses cagc.Params field names verbatim.
	spec := `{"workload":"mail","scheme":"cagc",
	          "params":{"DeviceBytes":16777216,"Requests":5000,"Seed":7}}`
	st := post(base+"/v1/jobs", spec)
	fmt.Printf("submitted %s  status=%s  config_key=%.12s…\n", st.ID, st.Status, st.ConfigKey)

	// Poll until the job reaches a terminal status.
	for st.Status == "queued" || st.Status == "running" {
		time.Sleep(20 * time.Millisecond)
		st = get(base + "/v1/jobs/" + st.ID)
	}
	fmt.Printf("finished  status=%s  events=%d  ran %.1fms\n", st.Status, st.Events, st.RanMs)

	doc1 := body(base + "/v1/jobs/" + st.ID + "/result")
	fmt.Printf("result document: %d bytes (first line %q)\n",
		len(doc1), firstLine(doc1))

	// Same configuration again: answered from the cache, byte-identical.
	st2 := post(base+"/v1/jobs", spec)
	doc2 := body(base + "/v1/jobs/" + st2.ID + "/result")
	fmt.Printf("resubmitted as %s  cached=%v  byte-identical=%v\n",
		st2.ID, st2.Cached, doc1 == doc2)

	// The serving counters sit next to the substrate gauges.
	for _, line := range strings.Split(body(base+"/metrics"), "\n") {
		if strings.HasPrefix(line, "serve_cache_") || strings.HasPrefix(line, "serve_jobs_executed") {
			fmt.Println("metrics:", line)
		}
	}
}

type status struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	ConfigKey string  `json:"config_key"`
	Cached    bool    `json:"cached"`
	Events    uint64  `json:"events"`
	RanMs     float64 `json:"ran_ms"`
}

func post(url, spec string) status {
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}

func get(url string) status {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}

func body(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i+1]
	}
	return s
}
