package main

import (
	"bytes"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMixIsFixedBySeed(t *testing.T) {
	a, b := genMix(7, 10, 60), genMix(7, 10, 60)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	if c := genMix(8, 10, 60); reflect.DeepEqual(a.open, c.open) {
		t.Fatal("different seeds gave the same open-loop stream")
	}
	if len(a.open) == 0 || len(a.closed) != 60 || len(a.warm) != headTenants {
		t.Fatalf("sizes: %d open, %d closed, %d warm", len(a.open), len(a.closed), len(a.warm))
	}
}

func TestTenantsAreValidProfiles(t *testing.T) {
	m := genMix(5, 1, 1)
	for i, p := range m.tenants {
		if _, err := p.Normalize(); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		if i < headTenants && p != headProfiles[i] {
			t.Fatalf("head tenant %d is %+v, want %+v", i, p, headProfiles[i])
		}
	}
}

func TestMixStreamsAreIndependentOfRunLength(t *testing.T) {
	short, long := genMix(3, 5, 40), genMix(3, 20, 100)
	if len(long.open) <= len(short.open) {
		t.Fatalf("longer window sent %d requests, shorter %d", len(long.open), len(short.open))
	}
	if !reflect.DeepEqual(short.open, long.open[:len(short.open)]) {
		t.Fatal("the shorter window's open stream is not a prefix of the longer one's")
	}
	if !reflect.DeepEqual(short.closed, long.closed[:len(short.closed)]) {
		t.Fatal("the closed-loop stream depends on the open-loop window")
	}
	for i := 1; i < len(long.open); i++ {
		if long.open[i].due < long.open[i-1].due {
			t.Fatal("arrival times are not increasing")
		}
	}
}

func TestMixBlocksAreStratified(t *testing.T) {
	m := genMix(11, 1, 10*mixBlock)
	for blk := 0; blk < 10; blk++ {
		streams, head := 0, 0
		for _, r := range m.closed[blk*mixBlock : (blk+1)*mixBlock] {
			if r.stream {
				streams++
			}
			if r.tenant < headTenants {
				head++
			}
			if r.pdrMin < float64(pdrLo)/100 || r.pdrMin > float64(pdrHi)/100 {
				t.Fatalf("pdr_min %v out of range", r.pdrMin)
			}
			if !bytes.Contains(r.body, []byte(`"pdr_min"`)) {
				t.Fatalf("body %s lacks pdr_min", r.body)
			}
		}
		if streams != streamPerBlk {
			t.Fatalf("block %d streams %d requests, want %d", blk, streams, streamPerBlk)
		}
		// Zipf(1.1) over 400 ranks puts ~41% of the mass on the top 4:
		// stratification keeps every block within one request of it.
		if head < 7 || head > 9 {
			t.Fatalf("block %d has %d head-tenant requests", blk, head)
		}
	}
}

func TestAccountFailsRefusedAndFailedRequests(t *testing.T) {
	m := genMix(2, 1, 1)
	r := m.open[0]
	r.stream = false
	ok := sample{status: http.StatusOK, body: []byte(`{"status":"infeasible","profile":{},"iterations":1,"evaluations":16}`)}
	ph := &servePhases{mix: mix{open: []request{r, r, r}}, open: []sample{ok, {status: http.StatusTooManyRequests}, {status: http.StatusInternalServerError}}}
	res := &result{}
	nOK, refused, failed := ph.account(res)
	if nOK != 1 || refused != 1 || failed != 1 || res.attempted != 3 || res.failed != 2 {
		t.Fatalf("ok %d, refused %d, failed %d, attempted %d, res.failed %d", nOK, refused, failed, res.attempted, res.failed)
	}
	if len(res.problems) != 2 {
		t.Fatalf("problems %q: want one for the refusal and one for the failure", res.problems)
	}
}

// The two loop tests assert ordering and lower bounds only: a slow host
// may stretch any wait, never shorten one.

func TestOpenLoopChargesGeneratorLateness(t *testing.T) {
	const work = 40 * time.Millisecond
	dues := []time.Duration{0, 0, 0, 200 * time.Millisecond}
	send := func(i int, start time.Time) sample {
		s := sample{sent: time.Since(start)}
		time.Sleep(work)
		s.done = time.Since(start)
		return s
	}
	out := openLoop(dues, 1, send)
	// One connection: the three requests due at 0 queue behind each
	// other, so the generator runs at least 0, 1 and 2 service times
	// late; the fourth is never sent before it is due.
	for i, wantLag := range []time.Duration{0, work, 2 * work, 0} {
		lag := out[i].sent - out[i].due
		if out[i].due != dues[i] || lag < wantLag {
			t.Errorf("request %d: due %v, lag %v, want due %v and lag at least %v", i, out[i].due, lag, dues[i], wantLag)
		}
		if i > 0 && out[i].sent < out[i-1].done {
			t.Errorf("request %d sent before request %d finished on the one connection", i, i-1)
		}
		if ttd := out[i].done - out[i].due; ttd < lag+work {
			t.Errorf("request %d: time to design %v does not count the lag %v", i, ttd, lag)
		}
		if out[i].lagMS() != lag.Seconds()*1000 {
			t.Errorf("request %d: lagMS disagrees with sent - due", i)
		}
	}
}

func TestClosedLoopKeepsConnsBusy(t *testing.T) {
	const n, conns, work = 6, 2, 20 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	inFlight, peak := 0, 0
	allBusy := make(chan struct{})
	send := func(i int, start time.Time) sample {
		s := sample{sent: time.Since(start)}
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		if inFlight == conns {
			once.Do(func() { close(allBusy) })
		}
		mu.Unlock()
		// The first requests hold their connections until every client
		// has one in flight: a loop that ran them one at a time would
		// time out here.
		select {
		case <-allBusy:
		case <-time.After(10 * time.Second):
			t.Errorf("request %d: the %d clients never had requests in flight together", i, conns)
		}
		time.Sleep(work)
		mu.Lock()
		inFlight--
		mu.Unlock()
		s.done = time.Since(start)
		return s
	}
	out, wall := closedLoop(n, conns, send)
	if peak != conns {
		t.Fatalf("peak %d requests in flight, want %d", peak, conns)
	}
	if wall < n/conns*work {
		t.Fatalf("%d requests of %v on %d clients took only %v", n, work, conns, wall)
	}
	for i, s := range out {
		if s.due != s.sent || s.done < s.sent+work {
			t.Fatalf("request %d: %+v", i, s)
		}
	}
}
