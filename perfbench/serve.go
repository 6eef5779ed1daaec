package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hiopt/internal/engine"
	"hiopt/internal/serve"
)

// The serve_mix traffic model (README.md gives the basis of each figure).
// Tenants are personalized profiles; popularity is Zipf, so a few head
// tenants repeat (warm engine entries) and a long tail keeps arriving cold
// (fresh simulations). Mix draws and Poisson inter-arrival gaps are
// stratified in blocks of mixBlock requests, so every seed sends the same
// share of head and tail tenants, of streamed requests and of each
// pdr_min band, at the same mean rate per block — the seed changes who
// and when, not how much work.
const (
	serveTenants = 400
	zipfS        = 1.1
	mixBlock     = 20
	streamPerBlk = 5 // 25% of requests stream NDJSON progress
	pdrLo, pdrHi = 60, 95
	// openRate is the open-loop arrival rate (requests/s), about a third
	// of the closed-loop capacity on a 2-CPU host: loaded enough to queue,
	// light enough that host speed swings do not multiply the waits (at
	// 10/s, ~0.5 of capacity on a slow host, the median time to design
	// spread 33% across seeds).
	openRate = 6.0
	// closedRate sizes the closed-loop phase: its request count is the
	// phase's share of the run at the throughput measured on a 2-CPU host.
	closedRate = 20.0
	openShare  = 0.6
	// sloMS is the time-to-design limit slo_met_frac is measured against.
	sloMS = 2000.0
)

// headProfiles are the most popular tenants: the four personalized
// profiles of cmd/hiserve-bench's mix (its fifth is the nominal profile),
// at the default fidelity.
var headProfiles = []serve.Profile{
	{BodyScale: 1.15},
	{ShadowDB: 3},
	{BatteryFrac: 0.5},
	{SigmaScale: 1.5},
}

var headTenants = len(headProfiles)

// request is one generated POST /v1/design call.
type request struct {
	tenant int
	pdrMin float64
	stream bool
	// due is the open-loop send time relative to the phase start.
	due  time.Duration
	body []byte
}

// mix is the whole serve_mix input: fixed by the seed alone (the window
// and closed-loop count only choose how much of each stream is used).
type mix struct {
	tenants []serve.Profile
	warm    []request
	open    []request
	closed  []request
}

// subRand derives an independent stream per purpose from the seed, so
// that e.g. a longer open-loop window does not shift the closed-loop
// requests.
func subRand(seed uint64, stream uint64) *rand.Rand {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

func genMix(seed uint64, window float64, closedN int) mix {
	var m mix
	tr := subRand(seed, 1)
	m.tenants = append(m.tenants, headProfiles...)
	for i := headTenants; i < serveTenants; i++ {
		// Each field on the serve grid, between the head profile's
		// deviation and its mirror image about nominal (battery charge
		// cannot exceed 1).
		m.tenants = append(m.tenants, serve.Profile{
			BodyScale:   float64(85+tr.Intn(31)) / 100,
			ShadowDB:    float64(tr.Intn(13)-6) / 2,
			SigmaScale:  float64(10+tr.Intn(21)) / 20,
			BatteryFrac: float64(50+tr.Intn(51)) / 100,
		})
	}
	zipf := zipfCDF(serveTenants, zipfS)
	for t := 0; t < headTenants; t++ {
		m.warm = append(m.warm, m.request(t, pdrHi, false))
	}
	or := subRand(seed, 2)
	var due time.Duration
	for {
		reqs := m.block(or, zipf)
		for i, gap := range stratified(or) {
			due += time.Duration(-math.Log(1-gap) / openRate * float64(time.Second))
			if due.Seconds() >= window {
				return m.withClosed(seed, zipf, closedN)
			}
			reqs[i].due = due
			m.open = append(m.open, reqs[i])
		}
	}
}

// stratified returns mixBlock uniform draws in [0, 1), one from each
// 1/mixBlock stratum, in random order.
func stratified(r *rand.Rand) []float64 {
	u := make([]float64, mixBlock)
	for j := range u {
		u[j] = (float64(j) + r.Float64()) / mixBlock
	}
	r.Shuffle(len(u), func(a, b int) { u[a], u[b] = u[b], u[a] })
	return u
}

func (m mix) withClosed(seed uint64, zipf []float64, n int) mix {
	cr := subRand(seed, 3)
	for len(m.closed) < n {
		m.closed = append(m.closed, m.block(cr, zipf)...)
	}
	m.closed = m.closed[:n]
	return m
}

// block draws mixBlock requests with stratified tenant ranks, pdr_min
// values and stream flags, in shuffled order.
func (m mix) block(r *rand.Rand, zipf []float64) []request {
	ranks, pdrs := stratified(r), stratified(r)
	streams := r.Perm(mixBlock)
	out := make([]request, mixBlock)
	for j := range out {
		tenant := sort.SearchFloat64s(zipf, ranks[j])
		pdr := pdrLo + int(pdrs[j]*float64(pdrHi-pdrLo+1))
		out[j] = m.request(tenant, pdr, streams[j] < streamPerBlk)
	}
	return out
}

func (m mix) request(tenant, pdrPct int, stream bool) request {
	p := m.tenants[tenant]
	p.PDRMin = float64(pdrPct) / 100
	p.Stream = stream
	body, err := json.Marshal(p)
	if err != nil {
		panic(err) // a Profile always marshals
	}
	return request{tenant: tenant, pdrMin: p.PDRMin, stream: stream, body: body}
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// sample is one completed (or failed) request, times relative to the
// phase start.
type sample struct {
	due, sent, first, done time.Duration
	status                 int
	body                   []byte
	err                    error
}

func (s sample) ttdMS() float64   { return (s.done - s.due).Seconds() * 1000 }
func (s sample) lagMS() float64   { return (s.sent - s.due).Seconds() * 1000 }
func (s sample) firstMS() float64 { return (s.first - s.due).Seconds() * 1000 }

// openLoop sends request i at dues[i] on at most conns concurrent
// senders. A request due while every sender is busy waits for one: its
// lateness (sent − due) is the generator's, and its time to design still
// counts from the due time, so a stall is charged to every request it
// delays.
func openLoop(dues []time.Duration, conns int, send func(i int, start time.Time) sample) []sample {
	out := make([]sample, len(dues))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := send(i, start)
				s.due = dues[i]
				out[i] = s
			}
		}()
	}
	for i, d := range dues {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs n requests on conns clients, each sending its next
// request when the previous one completes; due is the send time.
func closedLoop(n, conns int, send func(i int, start time.Time) sample) ([]sample, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := send(i, start)
				s.due = s.sent
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// post sends one request and reads the response to its last byte,
// noting when the first NDJSON iteration line arrived.
func post(client *http.Client, url string, r request, start time.Time) sample {
	s := sample{sent: time.Since(start)}
	resp, err := client.Post(url+"/v1/design", "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && s.first == 0 && bytes.Contains(line, []byte(`"event":"iteration"`)) {
			s.first = time.Since(start)
		}
		buf.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = err
			break
		}
	}
	s.done = time.Since(start)
	s.body = buf.Bytes()
	return s
}

// server is one in-process hiserve behind a loopback HTTP listener.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newServer() (*server, error) {
	srv, err := serve.New(serve.Config{Workers: workers()})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	return &server{srv: srv, ts: ts, client: &http.Client{Transport: tr}}, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

func (s *server) send(reqs []request) func(i int, start time.Time) sample {
	return func(i int, start time.Time) sample { return post(s.client, s.ts.URL, reqs[i], start) }
}

// warm runs the warm-up requests on a closed loop.
func (s *server) warm(reqs []request) []sample {
	out, _ := closedLoop(len(reqs), workers(), s.send(reqs))
	return out
}

// serveChecker checks responses: byte-identical per request body, and
// every returned design clears its pdr_min.
type serveChecker struct {
	res   *result
	first map[string][]byte
}

// check validates one sample and reports whether it succeeded.
func (c *serveChecker) check(r request, s sample) bool {
	if s.err != nil || s.status != http.StatusOK {
		return false
	}
	key := string(r.body)
	if ref, ok := c.first[key]; ok {
		if !bytes.Equal(ref, s.body) {
			c.res.checkf(false, "serve: response to %s differs from its first response", key)
			return false
		}
		return true
	}
	c.first[key] = s.body
	resp, _, err := parseResponse(s.body, r.stream)
	if err != nil {
		c.res.checkf(false, "serve: %s: %v", key, err)
		return false
	}
	if resp.Design != nil && resp.Design.PDR < r.pdrMin-feasTol {
		c.res.checkf(false, "serve: %s: design PDR %.6f below pdr_min", key, resp.Design.PDR)
		return false
	}
	return true
}

// iterEvent is the part of an NDJSON iteration line the trace replays.
type iterEvent struct {
	PBarStar float64 `json:"pbar_star_mw"`
	Pool     int     `json:"pool"`
}

// parseResponse decodes a /v1/design body: the Response, plus the
// iteration events of a streamed one.
func parseResponse(body []byte, stream bool) (*serve.Response, []iterEvent, error) {
	if !stream {
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, nil, err
		}
		return &resp, nil, nil
	}
	var evs []iterEvent
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev struct {
			Event    string          `json:"event"`
			Response *serve.Response `json:"response"`
			Error    string          `json:"error"`
			iterEvent
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nil, err
		}
		switch ev.Event {
		case "iteration":
			evs = append(evs, ev.iterEvent)
		case "result":
			return ev.Response, evs, nil
		default:
			return nil, nil, fmt.Errorf("stream event %q: %s", ev.Event, ev.Error)
		}
	}
	return nil, nil, fmt.Errorf("stream has no result line")
}

// servePhases is what one serve_mix run measured.
type servePhases struct {
	mix      mix
	srv      *server
	setups   []float64
	open     []sample
	closed   []sample
	closedT  time.Duration
	engStart engine.Stats // engine counters after warm-up
	engEnd   engine.Stats
}

func runServePhases(seed uint64, seconds float64) (*servePhases, error) {
	m := genMix(seed, openShare*seconds, int(math.Round((1-openShare)*seconds*closedRate)))
	ph := &servePhases{mix: m}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		srv, err := newServer()
		if err != nil {
			return nil, err
		}
		for _, s := range srv.warm(m.warm) {
			if s.err != nil || s.status != http.StatusOK {
				srv.close()
				return nil, fmt.Errorf("warm-up request failed: status %d, %v", s.status, s.err)
			}
		}
		ph.setups = append(ph.setups, time.Since(t).Seconds())
		if ph.srv != nil {
			ph.srv.close()
		}
		ph.srv = srv
	}
	ph.engStart = ph.srv.srv.Engine().Stats()
	dues := make([]time.Duration, len(m.open))
	for i, r := range m.open {
		dues[i] = r.due
	}
	ph.open = openLoop(dues, workers(), ph.srv.send(m.open))
	ph.closed, ph.closedT = closedLoop(len(m.closed), workers(), ph.srv.send(m.closed))
	ph.engEnd = ph.srv.srv.Engine().Stats()
	return ph, nil
}

// account checks every timed sample and counts outcomes.
func (ph *servePhases) account(res *result) (ok, refused, failed int) {
	chk := &serveChecker{res: res, first: map[string][]byte{}}
	for _, set := range []struct {
		reqs []request
		ss   []sample
	}{{ph.mix.open, ph.open}, {ph.mix.closed, ph.closed}} {
		for i, s := range set.ss {
			res.attempted++
			switch {
			case s.status == http.StatusTooManyRequests:
				refused++
			case chk.check(set.reqs[i], s):
				ok++
			default:
				failed++
			}
		}
	}
	res.failed += refused + failed
	res.checkf(refused == 0, "serve: %d of %d requests refused (429)", refused, ok+refused+failed)
	res.checkf(failed == 0, "serve: %d of %d requests failed or failed a check", failed, ok+refused+failed)
	return ok, refused, failed
}

func runServe(seed uint64, seconds float64) *result {
	res := &result{}
	ph, err := runServePhases(seed, seconds)
	if err != nil {
		res.attempted, res.failed = 1, 1
		res.checkf(false, "serve: %v", err)
		return res
	}
	defer ph.srv.close()
	ph.account(res)
	var ttd, first, lag []float64
	met := 0
	for i, s := range ph.open {
		lag = append(lag, s.lagMS())
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		ttd = append(ttd, s.ttdMS())
		if s.ttdMS() <= sloMS {
			met++
		}
		if ph.mix.open[i].stream && s.first > 0 {
			first = append(first, s.firstMS())
		}
	}
	capacity := float64(len(ph.closed)) / ph.closedT.Seconds()
	res.add("setup_s", "s", median(ph.setups), len(ph.setups))
	res.add("wall_s", "s", ph.closedT.Seconds(), len(ph.closed))
	res.add("ttd_p50_ms", "ms", median(ttd), len(ttd))
	res.extra = append(res.extra,
		tailMetric("ttd_p90_ms", "ms", ttd, 90),
		metric{name: "first_event_p50_ms", unit: "ms", value: median(first), n: len(first)},
		metric{name: "slo_met_frac", unit: "fraction", value: float64(met) / float64(max(len(ph.open), 1)), n: len(ph.open),
			note: fmt.Sprintf("time to design <= %.0f ms", sloMS)},
		metric{name: "capacity_rps", unit: "designs/s", value: capacity, n: len(ph.closed)},
		tailMetric("gen_lag_p90_ms", "ms", lag, 90),
		metric{name: "engine_hit_frac", unit: "fraction", value: hitFrac(ph.engEnd.Sub(ph.engStart)), n: int(ph.engEnd.Sub(ph.engStart).Submitted)},
	)
	return res
}

// hitFrac is the share of submitted engine requests answered without a
// fresh simulation.
func hitFrac(s engine.Stats) float64 {
	return ratio(float64(s.CacheHits+s.DedupHits+s.DiskHits), float64(s.Submitted))
}
