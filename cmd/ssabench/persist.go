// The -bench-persist harness: the evidence behind the binary wire
// codec and the persistent warm-start cache.
//
// Two sections:
//
//   - Codec: encode and decode the full Table 2 corpus (every workload
//     suite function) under the v2 JSON and b1 binary schemas, best of
//     several passes. The headline is the decode speedup — the decode
//     path is what both the server's IR mode and the warm scan pay on
//     every record — and the acceptance bar is b1 decode ≥ 3× v2.
//   - Restart: an in-process laocd (real HTTP loopback) with -cache-dir
//     compiles a pooled request stream cold, drains, restarts on the
//     same directory, and answers the identical stream warm. Reported:
//     hit rates, warm-loaded record counts, p50 request latency, and a
//     byte-identity check between the cold and warm responses.
//
// Wall-clock numbers (MB/s, p50) are host-dependent; the hit rates,
// record counts and the byte-identity verdict are deterministic and
// are the claims CI-grade comparisons should use. On a single-core
// host the latency columns reflect time-slicing, not service capacity.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/server"
	"outofssa/internal/workload"
)

const (
	persistCodecReps = 8
	persistRequests  = 400
	persistDistinct  = 100
	persistSeed      = 2024
)

type persistReport struct {
	Description string         `json:"description"`
	Date        string         `json:"date"`
	Host        obs.Host       `json:"host"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Cores       int            `json:"cores"`
	Caveat      string         `json:"caveat,omitempty"`
	Codec       codecSection   `json:"codec"`
	Restart     restartSection `json:"restart"`
}

type codecSection struct {
	Functions         int         `json:"functions"`
	Passes            int         `json:"passes_best_of"`
	Schemas           []codecPass `json:"schemas"`
	DecodeSpeedupB1   float64     `json:"decode_speedup_b1_over_v2"`
	EncodeSpeedupB1   float64     `json:"encode_speedup_b1_over_v2"`
	SizeRatioB1OverV2 float64     `json:"size_ratio_b1_over_v2"`
	Note              string      `json:"note"`
}

type codecPass struct {
	Schema         string  `json:"schema"`
	CorpusBytes    int64   `json:"corpus_bytes"`
	EncodeNS       int64   `json:"encode_ns_per_corpus"`
	DecodeNS       int64   `json:"decode_ns_per_corpus"`
	EncodeMBPerSec float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec float64 `json:"decode_mb_per_sec"`
}

type restartSection struct {
	Requests      int          `json:"requests"`
	Distinct      int          `json:"distinct_functions"`
	Cold          restartPhase `json:"cold"`
	Warm          restartPhase `json:"warm"`
	WarmRecords   int64        `json:"warm_loaded_records"`
	WarmSkipped   int64        `json:"warm_skipped_records"`
	StoreCorrupt  int64        `json:"store_corrupt_records"`
	ByteIdentical bool         `json:"cold_warm_byte_identical"`
	Note          string       `json:"note"`
}

type restartPhase struct {
	OK           int     `json:"ok"`
	HitRate      float64 `json:"result_cache_hit_rate"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	DecodeMisses int64   `json:"decode_misses"`
	Poison       int64   `json:"cache_poison"`
	P50RequestNS int64   `json:"p50_request_ns"`
}

// benchCodec times whole-corpus encode/decode passes per schema,
// keeping the best (minimum) wall time of persistCodecReps passes.
func benchCodec() (codecSection, error) {
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	type schema struct {
		name   string
		encode func(*ir.Func) ([]byte, error)
	}
	schemas := []schema{
		{ir.WireSchemaV2, ir.Marshal},
		{ir.WireSchemaB1, ir.MarshalBinary},
	}
	sec := codecSection{
		Functions: len(funcs),
		Passes:    persistCodecReps,
		Note:      "Whole-corpus passes over every workload suite function; best-of wall times. decode_speedup is the acceptance headline: the decode path is what the server's IR mode and the warm scan pay per record.",
	}
	for _, sc := range schemas {
		docs := make([][]byte, len(funcs))
		var corpus int64
		for i, f := range funcs {
			d, err := sc.encode(f)
			if err != nil {
				return sec, fmt.Errorf("%s encode %s: %w", sc.name, f.Name, err)
			}
			docs[i] = d
			corpus += int64(len(d))
		}
		best := func(pass func() error) (int64, error) {
			bestNS := int64(0)
			for r := 0; r < persistCodecReps; r++ {
				start := time.Now()
				if err := pass(); err != nil {
					return 0, err
				}
				if ns := time.Since(start).Nanoseconds(); bestNS == 0 || ns < bestNS {
					bestNS = ns
				}
			}
			return bestNS, nil
		}
		encNS, err := best(func() error {
			for _, f := range funcs {
				if _, err := sc.encode(f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return sec, err
		}
		decNS, err := best(func() error {
			for _, d := range docs {
				if _, err := ir.Unmarshal(d); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return sec, err
		}
		mbps := func(ns int64) float64 {
			return float64(corpus) / 1e6 / (float64(ns) / 1e9)
		}
		sec.Schemas = append(sec.Schemas, codecPass{
			Schema:         sc.name,
			CorpusBytes:    corpus,
			EncodeNS:       encNS,
			DecodeNS:       decNS,
			EncodeMBPerSec: mbps(encNS),
			DecodeMBPerSec: mbps(decNS),
		})
	}
	v2, b1 := sec.Schemas[0], sec.Schemas[1]
	sec.DecodeSpeedupB1 = float64(v2.DecodeNS) / float64(b1.DecodeNS)
	sec.EncodeSpeedupB1 = float64(v2.EncodeNS) / float64(b1.EncodeNS)
	sec.SizeRatioB1OverV2 = float64(b1.CorpusBytes) / float64(v2.CorpusBytes)
	return sec, nil
}

// runRestartPhase drives the request stream against a fresh server on
// dir and tears the server down (drained, store flushed).
func runRestartPhase(dir string, reqs []workload.ClientRequest, outputs []string) (restartPhase, *metrics.Registry, error) {
	reg := metrics.New()
	s, err := server.New(server.Config{
		Workers:         4,
		QueueDepth:      256,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     30 * time.Second,
		CacheEntries:    4 * persistDistinct,
		Metrics:         reg,
		CacheDir:        dir,
	})
	if err != nil {
		return restartPhase{}, nil, err
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	rep := workload.Drive(hs.URL, reqs, workload.DriveOptions{Concurrency: 8}, nil, outputs)
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return restartPhase{}, nil, fmt.Errorf("drain: %w", err)
	}
	if rep.OK != len(reqs) {
		return restartPhase{}, nil, fmt.Errorf("restart phase: %d/%d OK (%s)", rep.OK, len(reqs), rep.String())
	}
	ph := restartPhase{
		OK:           rep.OK,
		HitRate:      float64(rep.Cached) / float64(rep.OK),
		CacheHits:    regCounter(reg, "laocd_cache_hits_total"),
		CacheMisses:  regCounter(reg, "laocd_cache_misses_total"),
		DecodeMisses: regCounter(reg, "laocd_decode_misses_total"),
		Poison:       regCounter(reg, "laocd_cache_poison_total"),
		P50RequestNS: histQuantile(reg, "laocd_request_wall_ns", 0.5),
	}
	return ph, reg, nil
}

func regCounter(reg *metrics.Registry, name string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

func histQuantile(reg *metrics.Registry, name string, q float64) int64 {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h.Quantile(q)
		}
	}
	return 0
}

// benchRestart runs the cold → drain → restart → warm cycle.
func benchRestart() (restartSection, error) {
	dir, err := os.MkdirTemp("", "laoc-persist-bench-")
	if err != nil {
		return restartSection{}, err
	}
	defer os.RemoveAll(dir)

	funcs := workload.SynthPool(persistRequests, persistDistinct, persistSeed)
	reqs, err := workload.PooledRequests(funcs, persistRequests, 30_000)
	if err != nil {
		return restartSection{}, err
	}
	coldOut := make([]string, len(reqs))
	cold, _, err := runRestartPhase(dir, reqs, coldOut)
	if err != nil {
		return restartSection{}, err
	}
	warmOut := make([]string, len(reqs))
	warm, warmReg, err := runRestartPhase(dir, reqs, warmOut)
	if err != nil {
		return restartSection{}, err
	}
	identical := true
	for i := range coldOut {
		if coldOut[i] != warmOut[i] {
			identical = false
			break
		}
	}
	return restartSection{
		Requests:      persistRequests,
		Distinct:      persistDistinct,
		Cold:          cold,
		Warm:          warm,
		WarmRecords:   regCounter(warmReg, "laocd_store_warm_total"),
		WarmSkipped:   regCounter(warmReg, "laocd_store_warm_skipped_total"),
		StoreCorrupt:  regCounter(warmReg, "laocd_store_corrupt_total"),
		ByteIdentical: identical,
		Note:          "Cold: empty directory, every distinct function compiles once. Warm: same directory after a clean drain — the store replays one result record per distinct function, so the warm pass must serve every request from the verified cache (hit rate 1.0, zero decodes). Byte identity compares all per-request outputs across the restart.",
	}, nil
}

// runBenchPersist is the -bench-persist entry point.
func runBenchPersist(out string) error {
	rep := persistReport{
		Description: "Binary arena wire codec (laoc-ir-b1) vs v2 JSON over the Table 2 corpus, and a laocd cold-vs-warm restart cycle on a persistent cache store.",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Host:        obs.HostInfo(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Cores:       runtime.NumCPU(),
	}
	if rep.Cores < 2 {
		rep.Caveat = "Single-core host: MB/s and p50 figures time-slice one CPU and understate multi-core capacity. The hit rates, record counts, byte-identity verdict and the codec speedup ratios (same host both sides) are the portable claims."
	}

	codec, err := benchCodec()
	if err != nil {
		return err
	}
	rep.Codec = codec
	for _, sc := range codec.Schemas {
		fmt.Printf("codec %s: corpus %.1f KB, encode %6.1f MB/s, decode %6.1f MB/s\n",
			sc.Schema, float64(sc.CorpusBytes)/1e3, sc.EncodeMBPerSec, sc.DecodeMBPerSec)
	}
	fmt.Printf("codec: b1 decode speedup %.2fx over v2 (encode %.2fx, size ratio %.2f)\n",
		codec.DecodeSpeedupB1, codec.EncodeSpeedupB1, codec.SizeRatioB1OverV2)

	restart, err := benchRestart()
	if err != nil {
		return err
	}
	rep.Restart = restart
	fmt.Printf("restart: cold hit rate %.3f (p50 %v), warm hit rate %.3f (p50 %v), %d warm records, byte-identical=%v\n",
		restart.Cold.HitRate, time.Duration(restart.Cold.P50RequestNS),
		restart.Warm.HitRate, time.Duration(restart.Warm.P50RequestNS),
		restart.WarmRecords, restart.ByteIdentical)
	if !restart.ByteIdentical {
		return fmt.Errorf("bench-persist: warm responses differ from cold responses")
	}
	if restart.Warm.HitRate != 1.0 || restart.Warm.DecodeMisses != 0 {
		return fmt.Errorf("bench-persist: warm pass not fully served from cache (hit rate %.3f, %d decode misses)",
			restart.Warm.HitRate, restart.Warm.DecodeMisses)
	}
	if codec.DecodeSpeedupB1 < 3 {
		return fmt.Errorf("bench-persist: b1 decode speedup %.2fx below the 3x acceptance bar", codec.DecodeSpeedupB1)
	}

	w, err := os.Create(out)
	if err != nil {
		return err
	}
	defer w.Close()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
