package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft"
	"codeletfft/internal/serve"
)

// serveConns is how many connections (and concurrent callers) the load
// generator uses: one per core of the 2-core machine it was built on.
const serveConns = 2

// openRate is the open-loop arrival rate in requests per second, well
// under the capacity the closed loop measures.
const openRate = 120

// serveSizes are the complex lengths of the binary pool: four powers of
// two, a 7-smooth length (2^3·3^2·5·7) and a prime (Bluestein).
var serveSizes = []int{256, 1024, 4096, 16384, 2520, 4099}

// STFT streams: 128 frames of 128 samples at hop 64 — two 64-frame
// chunks that each coalesce separately while the stream holds one
// admission slot.
const (
	stftFrame  = 128
	stftHop    = 64
	stftFrames = 128
)

// serveReq is one pre-generated request of the pool with its reference.
type serveReq struct {
	shape string
	path  string
	ctype string
	body  []byte
	flops float64
	// verify checks a 200 response body; binary responses are decoded
	// into *scratch so the load generator allocates little.
	verify func(body []byte, scratch *[]complex128) error
}

type poolShape struct {
	slots int // requests of this shape per deckSize drawn
	reqs  []*serveReq
}

// deckSize is the block over which the request mix is exact: every
// deckSize consecutive requests hold each shape's slots once, shuffled,
// so the mix a run sends does not drift with the seed.
const deckSize = 400

// buildPool generates variants seeded requests per shape: binary complex
// forward and inverse at every serveSizes length (69% of traffic),
// binary real-input at three powers of two (20%), JSON forward (10%)
// and STFT streams (1%).
func buildPool(rng *rand.Rand, variants int) ([]*poolShape, error) {
	var shapes []*poolShape
	slots := 0
	add := func(name string, n int, mk func() (*serveReq, error)) error {
		ps := &poolShape{slots: n}
		for v := 0; v < variants; v++ {
			r, err := mk()
			if err != nil {
				return err
			}
			r.shape = name
			ps.reqs = append(ps.reqs, r)
		}
		shapes = append(shapes, ps)
		slots += n
		return nil
	}
	for _, n := range serveSizes {
		tw := newTwiddles(n)
		for _, kind := range []serve.Kind{serve.KindForward, serve.KindInverse} {
			err := add(fmt.Sprintf("bin %s %d", kind, n), 23, func() (*serveReq, error) {
				x := randComplex(rng, n)
				c := fftCheck(x, tw, 6, rng, kind == serve.KindInverse)
				return binReq(serve.Frame{Kind: kind, Complex: x}, fftFlops(n), c)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	for i, n := range []int{1024, 4096, 16384} {
		tw := newTwiddles(n)
		err := add(fmt.Sprintf("bin real %d", n), 27-i/2, func() (*serveReq, error) {
			x := randReal(rng, n)
			c := realCheck(x, tw, 6, rng)
			return binReq(serve.Frame{Kind: serve.KindReal, Real: x}, fftFlops(n)/2, c)
		})
		if err != nil {
			return nil, err
		}
	}
	const jsonN = 1024
	jtw := newTwiddles(jsonN)
	err := add("json forward 1024", 40, func() (*serveReq, error) {
		x := randComplex(rng, jsonN)
		c := fftCheck(x, jtw, 6, rng, false)
		re, im := make([]float64, jsonN), make([]float64, jsonN)
		for i, v := range x {
			re[i], im[i] = real(v), imag(v)
		}
		body, err := json.Marshal(map[string]any{"kind": "forward", "re": re, "im": im})
		return &serveReq{
			path: "/fft", ctype: "application/json", body: body, flops: fftFlops(jsonN),
			verify: func(b []byte, _ *[]complex128) error {
				var resp struct{ Re, Im []float64 }
				if err := json.Unmarshal(b, &resp); err != nil {
					return err
				}
				if len(resp.Re) != len(resp.Im) {
					return fmt.Errorf("re has %d values, im %d", len(resp.Re), len(resp.Im))
				}
				out := make([]complex128, len(resp.Re))
				for i := range out {
					out[i] = complex(resp.Re[i], resp.Im[i])
				}
				return c.verify(out)
			},
		}, err
	})
	if err != nil {
		return nil, err
	}
	stw := newTwiddles(stftFrame)
	if err := add("stft 128/64", 4, func() (*serveReq, error) { return newSTFTReq(rng, stw) }); err != nil {
		return nil, err
	}
	if slots != deckSize {
		return nil, fmt.Errorf("request mix fills %d of %d deck slots", slots, deckSize)
	}
	return shapes, nil
}

// binReq is a /fft/bin request whose complex response frame is checked
// against c.
func binReq(f serve.Frame, flops float64, c *check) (*serveReq, error) {
	body, err := serve.EncodeFrame(f)
	return &serveReq{
		path: "/fft/bin", ctype: "application/octet-stream", body: body, flops: flops,
		verify: func(b []byte, scratch *[]complex128) error {
			out, err := decodeComplex(b, scratch)
			if err != nil {
				return err
			}
			return c.verify(out)
		},
	}, err
}

// newSTFTReq builds a spectrogram request and a reference for three of
// its frames (first, last, one seeded), each checked like a complex
// transform of the Hann-windowed frame (the endpoint returns all frame
// bins).
func newSTFTReq(rng *rand.Rand, tw twiddles) (*serveReq, error) {
	samples := randReal(rng, (stftFrames-1)*stftHop+stftFrame)
	checks := map[int]*check{}
	for _, f := range []int{0, stftFrames - 1, rng.Intn(stftFrames)} {
		x := make([]complex128, stftFrame)
		for j := range x {
			x[j] = complex(samples[f*stftHop+j]*hann(j, stftFrame), 0)
		}
		checks[f] = fftCheck(x, tw, 4, rng, false)
	}
	body, err := json.Marshal(map[string]any{"frame": stftFrame, "hop": stftHop, "window": "hann", "samples": samples})
	return &serveReq{
		path: "/fft/stft", ctype: "application/json", body: body,
		flops: stftFrames * fftFlops(stftFrame),
		verify: func(b []byte, _ *[]complex128) error {
			sc := bufio.NewScanner(bytes.NewReader(b))
			sc.Buffer(make([]byte, 1<<16), 1<<22)
			var hdr struct{ Frames, Bins int }
			if !sc.Scan() {
				return errors.New("empty stream")
			}
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				return err
			}
			if hdr.Frames != stftFrames || hdr.Bins != stftFrame {
				return fmt.Errorf("header %+v, want %d frames of %d bins", hdr, stftFrames, stftFrame)
			}
			seen := 0
			for sc.Scan() {
				var fr struct {
					I      int
					Re, Im []float64
					Error  string
				}
				if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
					return err
				}
				if fr.Error != "" {
					return errors.New(fr.Error)
				}
				if fr.I != seen || len(fr.Re) != hdr.Bins || len(fr.Im) != hdr.Bins {
					return fmt.Errorf("frame line %d malformed (i=%d, %d bins)", seen, fr.I, len(fr.Re))
				}
				if c := checks[fr.I]; c != nil {
					out := make([]complex128, hdr.Bins)
					for i := range out {
						out[i] = complex(fr.Re[i], fr.Im[i])
					}
					if err := c.verify(out); err != nil {
						return fmt.Errorf("frame %d: %w", fr.I, err)
					}
				}
				seen++
			}
			if seen != stftFrames {
				return fmt.Errorf("stream ended after %d of %d frames", seen, stftFrames)
			}
			return sc.Err()
		},
	}, err
}

// hann is the periodic Hann window the spectrogram endpoint applies.
func hann(j, n int) float64 {
	return 0.5 * (1 - math.Cos(2*math.Pi*float64(j)/float64(n)))
}

// outcome is what happened to one request.
type outcome struct {
	req     *serveReq
	late    time.Duration // send time minus due time (open loop)
	service time.Duration // send to last response byte
	shed    bool          // 429 or 503
	failed  error         // transport error or any other status
	wrong   error         // 200 with an output that failed verification
}

func (o outcome) ok() bool { return !o.shed && o.failed == nil && o.wrong == nil }

// client sends pool requests to the server under test.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

// sender is one caller's reusable response and decode buffers.
type sender struct {
	body    bytes.Buffer
	scratch []complex128
}

func (c *client) do(s *sender, r *serveReq, parent int64) outcome {
	sp := c.tr.start("http "+r.shape, parent)
	t := time.Now()
	o := outcome{req: r}
	status, err := c.post(s, r.path, r.ctype, r.body)
	o.service = time.Since(t)
	sp.end()
	switch {
	case err != nil:
		o.failed = err
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		o.shed = true
	case status != http.StatusOK:
		o.failed = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(s.body.Bytes()))
	default:
		o.wrong = r.verify(s.body.Bytes(), &s.scratch)
	}
	return o
}

// post sends one request and reads the whole response into s.body.
func (c *client) post(s *sender, path, ctype string, body []byte) (int, error) {
	resp, err := c.http.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	s.body.Reset()
	_, err = s.body.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// decodeComplex reads a binary response frame with a complex payload
// into *scratch, parsing the documented layout itself (magic "FFB1",
// version 1, elem 0, little-endian count and float64 pairs) rather than
// trusting the codec under test.
func decodeComplex(b []byte, scratch *[]complex128) ([]complex128, error) {
	if len(b) < 12 || string(b[:4]) != "FFB1" || b[4] != 1 || b[6] != 0 || b[7] != 0 {
		return nil, fmt.Errorf("bad frame header % x", b[:min(len(b), 12)])
	}
	n := int(binary.LittleEndian.Uint32(b[8:12]))
	if len(b) != 12+16*n {
		return nil, fmt.Errorf("frame of %d bytes for %d elements", len(b), n)
	}
	if cap(*scratch) < n {
		*scratch = make([]complex128, n)
	}
	out := (*scratch)[:n]
	for i := range out {
		p := b[12+16*i:]
		out[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(p)),
			math.Float64frombits(binary.LittleEndian.Uint64(p[8:])))
	}
	return out, nil
}

// scrape reads the server's /metrics exposition.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serveMixed drives an in-process fftserved (default configuration) on
// loopback TCP: a cold request per shape, an open loop at openRate, then
// a closed loop on serveConns connections.
func serveMixed(e *env) error {
	rng := rand.New(rand.NewSource(e.opt.seed))
	var shapes []*poolShape
	var err error
	e.clock.exclude(func() { shapes, err = buildPool(rng, 3) })
	if err != nil {
		return err
	}
	if e.tr != nil {
		if err := firstUse(e, rand.New(rand.NewSource(e.opt.seed+1))); err != nil {
			return err
		}
	}

	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	c := &client{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport, Timeout: time.Minute}, tr: e.tr}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.Drain(ctx)
		<-served
	}()

	// Cold phase: one request per shape, in order, each verified.
	cold := e.tr.start("serve.cold", 0)
	var s sender
	for _, ps := range shapes {
		o := c.do(&s, ps.reqs[0], cold.id)
		e.clock.exclude(func() { e.tally(o) })
	}
	cold.end()
	e.e2e["setup_s"] = e.clock.seconds()
	if e.opt.setupOnly {
		return nil
	}

	openDur := time.Duration(e.opt.seconds * 2 / 3 * float64(time.Second))
	closedDur := time.Duration(e.opt.seconds / 3 * float64(time.Second))
	runtime.GC()
	before, err := c.scrape()
	if err != nil {
		return err
	}
	h0, m0 := codeletfft.PlanCacheStats()
	open := e.tr.start("serve.open_loop", 0)
	outs, err := openLoop(c, shapes, rng, openDur, open.id)
	if err != nil {
		return err
	}
	open.end()
	h1, m1 := codeletfft.PlanCacheStats()
	after, err := c.scrape()
	if err != nil {
		return err
	}
	phaseMs := msOf(openDur)
	var lat, late, svc, stream []float64
	var okN, shedN int
	for _, o := range outs {
		e.tally(o)
		late = append(late, msOf(o.late))
		ms := msOf(o.late + o.service)
		switch {
		case o.ok():
			okN++
			// Client-side time of every request, streams included, as
			// the handler histogram counts them.
			svc = append(svc, msOf(o.service))
		case o.shed:
			shedN++
			ms = phaseMs // a shed request misses any latency limit
		default:
			ms = phaseMs
		}
		if o.req.path == "/fft/stft" {
			stream = append(stream, ms)
		} else {
			lat = append(lat, ms)
		}
	}
	e.e2e["p50_ms"] = median(lat)
	e.layer["loadgen.p90_ms"] = quantile(lat, 0.90)
	e.layer["loadgen.p99_ms"] = quantile(lat, 0.99)
	e.info["latency_unit"] = "one open-loop /fft or /fft/bin request, from its due time"
	e.info["latency_samples"] = len(lat)
	e.info["stft_streams"] = len(stream)
	e.info["stft_stream_ms_median"] = median(stream)

	d := func(name string) float64 { return after[name] - before[name] }
	handler := 1e3 * ratio(d("fft_request_seconds_sum"), d("fft_request_seconds_count"))
	batch := 1e3 * ratio(d("fft_batch_seconds_sum"), d("fft_batch_seconds_count"))
	e.layer["serve.handler_ms_mean"] = handler
	e.layer["serve.batch_ms_mean"] = batch
	e.layer["serve.wait_ms_mean"] = handler - batch
	e.layer["serve.transport_ms_mean"] = mean(svc) - handler
	e.layer["serve.batch_occupancy_mean"] = ratio(d("fft_batch_occupancy_sum"), d("fft_batch_occupancy_count"))
	e.layer["plan.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	e.layer["loadgen.late_p99_ms"] = quantile(late, 0.99)
	e.layer["loadgen.attempted"] = float64(len(outs))
	e.layer["loadgen.ok"] = float64(okN)
	e.layer["loadgen.shed"] = float64(shedN)
	e.layer["loadgen.failed"] = float64(len(outs) - okN - shedN)

	closed := e.tr.start("serve.closed_loop", 0)
	outs, decks := closedLoop(c, shapes, rng, closedDur, closed.id)
	closed.end()
	for _, o := range outs {
		e.tally(o)
	}
	// Both rates come from the median time a caller takes for one whole
	// deck, whose request mix (and so its work) is exact, so neither the
	// mix of a stretch of the loop nor a stall in one deck moves them.
	var deckFlops float64
	for _, ps := range shapes {
		deckFlops += float64(ps.slots) * ps.reqs[0].flops
	}
	perDeck := median(decks)
	e.layer["loadgen.req_per_s"] = serveConns * deckSize / perDeck
	e.layer["loadgen.gflops"] = serveConns * deckFlops / perDeck / 1e9
	e.info["closed_loop_deck_s"] = decks

	final, err := c.scrape()
	if err != nil {
		return err
	}
	e.layer["serve.shed_total"] = final["fft_responses_shed_queue_total"] + final["fft_responses_shed_drain_total"]
	e.layer["serve.deadline_total"] = final["fft_responses_deadline_total"]

	kernels := map[string]string{}
	for _, n := range serveSizes {
		p, err := codeletfft.CachedHostPlan(n)
		if err != nil {
			return err
		}
		kernels[fmt.Sprintf("n%d", n)] = fmt.Sprintf("%s/%s", p.Algorithm(), p.Kernel())
	}
	e.info["kernels"] = kernels
	if e.tr != nil {
		return codecAndPlanProbes(e, shapes)
	}
	return nil
}

// tally records one request's outcome in the run totals.
func (e *env) tally(o outcome) {
	switch {
	case o.wrong != nil, o.ok():
		e.check(o.req.shape, o.wrong)
	default:
		e.attempted++
		e.failed++
		if o.failed != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", o.req.shape, o.failed)
		}
	}
}

// openLoop sends one request every 1/openRate seconds for dur over
// serveConns senders. Each request is due at its scheduled time whether
// or not an earlier one has finished; a sender that is busy past a due
// time sends late, and the lateness counts in the request's latency.
func openLoop(c *client, shapes []*poolShape, rng *rand.Rand, dur time.Duration, parent int64) ([]outcome, error) {
	dk := newDeck(shapes, rng)
	var due []time.Duration
	var reqs []*serveReq
	for t := time.Duration(0); t < dur; t += time.Second / openRate {
		due = append(due, t)
		reqs = append(reqs, dk.next())
	}
	outs := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sender
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := t0.Add(due[i])
				time.Sleep(time.Until(at))
				late := time.Since(at)
				outs[i] = c.do(&s, reqs[i], parent)
				outs[i].late = late
			}
		}()
	}
	wg.Wait()
	if len(outs) == 0 {
		return nil, errors.New("open loop scheduled no request")
	}
	return outs, nil
}

// warmDecks is how many whole decks each closed-loop caller sends
// before its decks are timed: the first one runs slower while the
// connections, the heap and the server's buffers settle.
const warmDecks = 1

// closedLoop keeps serveConns callers busy for dur, and at least until
// each has completed one deck after its warmDecks, each sending its
// next request as soon as the previous one completes. Besides every
// outcome it returns how long, in seconds, each caller took for each
// whole deck of deckSize requests it completed after its warmDecks.
func closedLoop(c *client, shapes []*poolShape, rng *rand.Rand, dur time.Duration, parent int64) ([]outcome, []float64) {
	var mu sync.Mutex
	var outs []outcome
	var decks []float64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < serveConns; w++ {
		dk := newDeck(shapes, rand.New(rand.NewSource(rng.Int63())))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sender
			deckStart := time.Now()
			for sent := 1; sent <= (warmDecks+1)*deckSize || time.Now().Before(deadline); sent++ {
				o := c.do(&s, dk.next(), parent)
				mu.Lock()
				outs = append(outs, o)
				if sent%deckSize == 0 {
					if sent > warmDecks*deckSize {
						decks = append(decks, time.Since(deckStart).Seconds())
					}
					deckStart = time.Now()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, decks
}

// deck deals pool requests so that every deckSize consecutive draws
// hold each shape's slots exactly once, in seeded shuffled order.
type deck struct {
	rng    *rand.Rand
	shapes []*poolShape
	order  []*poolShape
}

func newDeck(shapes []*poolShape, rng *rand.Rand) *deck {
	return &deck{rng: rng, shapes: shapes}
}

func (d *deck) next() *serveReq {
	if len(d.order) == 0 {
		for _, s := range d.shapes {
			for i := 0; i < s.slots; i++ {
				d.order = append(d.order, s)
			}
		}
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	}
	s := d.order[len(d.order)-1]
	d.order = d.order[:len(d.order)-1]
	return s.reqs[d.rng.Intn(len(s.reqs))]
}

// firstUse measures, before the server exists, what the first transform
// of each served complex length costs over a steady one on a fresh plan:
// the tuner's race plus plan construction.
func firstUse(e *env, rng *rand.Rand) error {
	for _, n := range serveSizes {
		x := randComplex(rng, n)
		buf := make([]complex128, n)
		copy(buf, x)
		sp := e.tr.start(fmt.Sprintf("tune.first_use n%d", n), 0)
		t := time.Now()
		p, err := codeletfft.NewHostPlan(n)
		if err != nil {
			return err
		}
		if err := p.Transform(buf); err != nil {
			return err
		}
		first := msSince(t)
		sp.end()
		var steady []float64
		for r := 0; r < 9; r++ {
			copy(buf, x)
			t := time.Now()
			if err := p.Transform(buf); err != nil {
				return err
			}
			steady = append(steady, msSince(t))
		}
		e.layer[fmt.Sprintf("tune.first_use_ms.n%d", n)] = first - median(steady)
	}
	return nil
}

// codecAndPlanProbes times the binary codec on the pool's frames and a
// warm plan-cache lookup for every served length.
func codecAndPlanProbes(e *env, shapes []*poolShape) error {
	const reps = 20
	var bodies [][]byte
	for _, ps := range shapes {
		for _, r := range ps.reqs {
			if r.path == "/fft/bin" {
				bodies = append(bodies, r.body)
			}
		}
	}
	frames := make([]serve.Frame, len(bodies))
	sp := e.tr.start("codec.decode", 0)
	t := time.Now()
	for r := 0; r < reps; r++ {
		for i, b := range bodies {
			f, err := serve.DecodeFrame(b)
			if err != nil {
				return err
			}
			frames[i] = f
		}
	}
	e.layer["codec.decode_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(reps*len(bodies))
	sp.end()
	sp = e.tr.start("codec.encode", 0)
	t = time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			if _, err := serve.EncodeFrame(f); err != nil {
				return err
			}
		}
	}
	e.layer["codec.encode_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(reps*len(frames))
	sp.end()

	const lookups = 2000
	sp = e.tr.start("plan.lookup", 0)
	t = time.Now()
	for r := 0; r < lookups; r++ {
		if _, err := codeletfft.CachedHostPlan(serveSizes[r%len(serveSizes)]); err != nil {
			return err
		}
	}
	e.layer["plan.lookup_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / lookups
	sp.end()
	return nil
}
