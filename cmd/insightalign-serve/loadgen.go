package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/serve"
)

// loadgenInsights is the number of distinct insights the loadgen mode cycles
// through. Fleet affinity and the canary split are sticky per insight
// fingerprint, so traffic needs many keys to reach every replica or arm.
const loadgenInsights = 64

// loadgenResult is what loadgen prints: counts only. Latency and rate
// are perfbench's to measure.
type loadgenResult struct {
	Requests int            `json:"requests"`
	Failures int            `json:"failures"`
	ByStatus map[string]int `json:"by_status"`
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "server or router base URL")
	clients := fs.Int("clients", 8, "concurrent clients")
	requests := fs.Int("requests", 200, "total requests")
	seed := fs.Int64("seed", 1, "insight generation seed")
	fs.Parse(args)
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("loadgen: -clients and -requests must be at least 1")
	}
	return json.NewEncoder(os.Stdout).Encode(runLoadgen(*url, *clients, *requests, *seed))
}

// runLoadgen sends requests POST /v1/recommend calls from clients
// concurrent loops. Client c walks the insights in order from 131·c, so
// the clients start spread over the pool. A transport error counts under
// "transport", any other answer under its status code, and everything
// but 200 is a failure.
func runLoadgen(url string, clients, requests int, seed int64) loadgenResult {
	rng := rand.New(rand.NewSource(seed))
	dim := core.DefaultConfig().InsightDim
	bodies := make([][]byte, loadgenInsights)
	for i := range bodies {
		iv := make([]float64, dim)
		for j := range iv {
			iv[j] = rng.NormFloat64()
		}
		bodies[i], _ = json.Marshal(serve.RecommendRequest{Insight: iv}) // finite floats always marshal
	}
	client := &http.Client{Timeout: 30 * time.Second}
	res := loadgenResult{Requests: requests, ByStatus: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		n := requests / clients
		if c < requests%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				class := "transport"
				resp, err := client.Post(url+"/v1/recommend", "application/json", bytes.NewReader(bodies[(c*131+i)%loadgenInsights]))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					class = strconv.Itoa(resp.StatusCode)
				}
				mu.Lock()
				res.ByStatus[class]++
				if class != "200" {
					res.Failures++
				}
				mu.Unlock()
			}
		}(c, n)
	}
	wg.Wait()
	return res
}
