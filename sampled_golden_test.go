package tip

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// sampledGolden pins both sampled producers bit for bit: the SHA-256 of the
// measured trace's encoded bytes, the published Stats, and the schedule
// (wall-clock fields zeroed). The convergence tests only bound the estimate
// within tolerances; these values catch any change to what the producers
// emit or how they stitch. A deliberate estimator change regenerates them
// from the test's failure output.
var sampledGolden = []struct {
	bench                  string
	window, interval, warm uint64
	workers                int
	trace, stats, schedule string
}{
	{"mcf", 1024, 8192, 1024, 0,
		"902fffc891ee6c304c42f8682f14afcf7227198a2d91575429ea6e4b560498fd",
		"{Cycles:359551 Committed:43569 Fetched:19705 Mispredicts:105 CSRFlushes:0 Exceptions:12 BTBBubbles:2 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:38 MeasuredCycles:38809 DetailedCycles:77600 WarmupCyclesRun:38688 FFInstructions:27515 FFRepresentedCycles:226858 WarmupRepresentedCycles:93884 EstimatedCycles:359551 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"mcf", 1024, 8192, 1024, 1,
		"109206f562a3351d314ae368e7b72d343ae16c4bbc902569fb9fadbe53aa8af4",
		"{Cycles:330299 Committed:43053 Fetched:17385 Mispredicts:64 CSRFlushes:0 Exceptions:9 BTBBubbles:2 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:36 MeasuredCycles:36662 DetailedCycles:72502 WarmupCyclesRun:35840 FFInstructions:29202 FFRepresentedCycles:230761 WarmupRepresentedCycles:62876 EstimatedCycles:330299 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"mcf", 2048, 16384, 4096, 0,
		"e5e69f1684bea3e3a3a40e7ddd7ae6e1d4717512a84afd16787a1e80e9544efa",
		"{Cycles:221509 Committed:43311 Fetched:15583 Mispredicts:83 CSRFlushes:0 Exceptions:6 BTBBubbles:8 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:13 MeasuredCycles:26624 DetailedCycles:75776 WarmupCyclesRun:49152 FFInstructions:28878 FFRepresentedCycles:142393 WarmupRepresentedCycles:52492 EstimatedCycles:221509 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"mcf", 2048, 16384, 4096, 1,
		"ac5b42a37ea4ba04c792dbba6284be96b37cb5a48e77ac19dbe445bef87c6eed",
		"{Cycles:266180 Committed:43053 Fetched:15917 Mispredicts:77 CSRFlushes:0 Exceptions:8 BTBBubbles:8 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:13 MeasuredCycles:26497 DetailedCycles:75649 WarmupCyclesRun:49152 FFInstructions:28561 FFRepresentedCycles:173624 WarmupRepresentedCycles:66059 EstimatedCycles:266180 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"x264", 1024, 8192, 1024, 0,
		"750d42615aab4a4e810b2431cf24b53bad2f76b589e1e9d1d96948bc24e6f1c8",
		"{Cycles:54012 Committed:45976 Fetched:11896 Mispredicts:118 CSRFlushes:0 Exceptions:0 BTBBubbles:7 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:8 MeasuredCycles:8148 DetailedCycles:15316 WarmupCyclesRun:7168 FFInstructions:34523 FFRepresentedCycles:40133 WarmupRepresentedCycles:5731 EstimatedCycles:54012 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"x264", 1024, 8192, 1024, 1,
		"ca0d477588774f941fcd204e134afc4de20ae752bdb56ddc1e8298c91ae9b4cd",
		"{Cycles:56719 Committed:45976 Fetched:11939 Mispredicts:119 CSRFlushes:0 Exceptions:0 BTBBubbles:7 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:8 MeasuredCycles:8192 DetailedCycles:15360 WarmupCyclesRun:7168 FFInstructions:34414 FFRepresentedCycles:42105 WarmupRepresentedCycles:6422 EstimatedCycles:56719 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"x264", 2048, 16384, 4096, 0,
		"b746e5b37877a176f66120f624fd2da0ce097fb06e6332e9f87fb711a0ece731",
		"{Cycles:52781 Committed:45976 Fetched:20688 Mispredicts:187 CSRFlushes:0 Exceptions:0 BTBBubbles:7 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:4 MeasuredCycles:8192 DetailedCycles:24511 WarmupCyclesRun:16319 FFInstructions:25540 FFRepresentedCycles:29569 WarmupRepresentedCycles:15020 EstimatedCycles:52781 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"x264", 2048, 16384, 4096, 1,
		"a792faeca95b69b17fd0fd0e24e9036692f4b3dec92e0ec31dfec687fe1cf710",
		"{Cycles:49722 Committed:45976 Fetched:17213 Mispredicts:151 CSRFlushes:0 Exceptions:0 BTBBubbles:7 StoreStallCycles:0 PMUInterrupts:0}",
		"{Windows:4 MeasuredCycles:8158 DetailedCycles:20446 WarmupCyclesRun:12288 FFInstructions:29045 FFRepresentedCycles:31387 WarmupRepresentedCycles:10177 EstimatedCycles:49722 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"imagick", 1024, 8192, 1024, 0,
		"4e7e7c19db77ae01b9f28ccf4b782d92facc3e31e3d3488e3159d0582004f8cc",
		"{Cycles:97681 Committed:62358 Fetched:21836 Mispredicts:15 CSRFlushes:115 Exceptions:0 BTBBubbles:3 StoreStallCycles:1122 PMUInterrupts:0}",
		"{Windows:13 MeasuredCycles:13180 DetailedCycles:25468 WarmupCyclesRun:12288 FFInstructions:45118 FFRepresentedCycles:69912 WarmupRepresentedCycles:14589 EstimatedCycles:97681 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"imagick", 1024, 8192, 1024, 1,
		"2d4ba4daaee74091346bb283890755f435dcf6c8400d6615903a65d03dad48ac",
		"{Cycles:86983 Committed:62358 Fetched:18616 Mispredicts:17 CSRFlushes:110 Exceptions:0 BTBBubbles:3 StoreStallCycles:1274 PMUInterrupts:0}",
		"{Windows:11 MeasuredCycles:10285 DetailedCycles:20525 WarmupCyclesRun:10240 FFInstructions:48037 FFRepresentedCycles:66928 WarmupRepresentedCycles:9770 EstimatedCycles:86983 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"imagick", 2048, 16384, 4096, 0,
		"4efbde81c0cebbb4873a6df6ff07462d01bf52101b7658eca272c62fe646da88",
		"{Cycles:89248 Committed:62358 Fetched:34808 Mispredicts:28 CSRFlushes:268 Exceptions:0 BTBBubbles:8 StoreStallCycles:1421 PMUInterrupts:0}",
		"{Windows:7 MeasuredCycles:14336 DetailedCycles:38912 WarmupCyclesRun:24576 FFInstructions:36808 FFRepresentedCycles:52350 WarmupRepresentedCycles:22562 EstimatedCycles:89248 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
	{"imagick", 2048, 16384, 4096, 1,
		"ff12e7c7e05fa5678a4d366eb4164304fbc0cd7b99cfdbe7164cc535890b890f",
		"{Cycles:86120 Committed:62358 Fetched:34035 Mispredicts:25 CSRFlushes:266 Exceptions:0 BTBBubbles:8 StoreStallCycles:1617 PMUInterrupts:0}",
		"{Windows:7 MeasuredCycles:14333 DetailedCycles:38909 WarmupCyclesRun:24576 FFInstructions:37390 FFRepresentedCycles:51171 WarmupRepresentedCycles:20616 EstimatedCycles:86120 WindowWorkers:0 SweepSeconds:0 MeasureSeconds:0}"},
}

// TestRunSampledGolden runs each pinned configuration at 50K instructions
// and compares the measured trace, Stats and schedule against sampledGolden.
func TestRunSampledGolden(t *testing.T) {
	for _, g := range sampledGolden {
		name := sampledGoldenName(g.bench, g.window, g.interval, g.warm, g.workers)
		t.Run(name, func(t *testing.T) {
			w, err := workload.LoadScaled(g.bench, 1, 50_000)
			if err != nil {
				t.Fatal(err)
			}
			rc := DefaultRunConfig()
			rc.Profilers = []Kind{KindTIP}
			rc.SampleInterval = 1009
			rc.Sampled = true
			rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles = g.window, g.interval, g.warm
			rc.WindowWorkers = g.workers
			capt := trace.NewCapture()
			defer capt.Close()
			rc.ExtraConsumers = []trace.Consumer{capt}
			res, err := RunSampled(context.Background(), w, rc)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := capt.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			got := [3]string{fmt.Sprintf("%x", h.Sum(nil)),
				fmt.Sprintf("%+v", res.Stats), fmt.Sprintf("%+v", normalizeSampling(res.Sampling))}
			want := [3]string{g.trace, g.stats, g.schedule}
			for i, field := range []string{"trace SHA-256", "stats", "schedule"} {
				if got[i] != want[i] {
					t.Errorf("%s:\n got  %s\n want %s", field, got[i], want[i])
				}
			}
		})
	}
}

// sampledProfileGolden pins the profiles of each sampledGolden
// configuration, keyed by its subtest name: a SHA-256 over the sampling
// interval, every default-matrix profiler's samples, weights, profile and
// TIP categories, and the Oracle's profile, cycle stack and breakdown (see
// profileDigest). A change to how the producers deliver the measured stream
// that leaves these alone moved no profile byte.
var sampledProfileGolden = map[string]string{
	"mcf/w1024-i8192-warm1024/workers0":      "5454969aecd4fcb90de877b5cfe76b00ac6afaf3fe333f35d1705ff8f962bf91",
	"mcf/w1024-i8192-warm1024/workers1":      "14fcce4192d5ae933f8682c66d2510fafbf462f5ee7884ad9c61af43fcf6bf43",
	"mcf/w2048-i16384-warm4096/workers0":     "11477f8d22915e6e90d57db8a027dcbcb0f5df8adb2b8c6c54efa74337d20ee9",
	"mcf/w2048-i16384-warm4096/workers1":     "74adfaabbfe3ac4c7cbc2bf2550efecba4ebba52e9d782244497b638c4ab09d9",
	"x264/w1024-i8192-warm1024/workers0":     "fec39b9ab05c082726a999811f5881e6d583712cb508717d3c4c3380a4f0656b",
	"x264/w1024-i8192-warm1024/workers1":     "b53aa0e19655654c682c7732f44d8d0aad28d65674f94e784b664fcdae2639f4",
	"x264/w2048-i16384-warm4096/workers0":    "a9c69a963b0563c62d30ea18d547f79c2f9792e80767fca8452c805be3ddb39d",
	"x264/w2048-i16384-warm4096/workers1":    "1a8be366dab01f04c5c96538083fc7bbe70bc41de2fb98334b833bd35ad55901",
	"imagick/w1024-i8192-warm1024/workers0":  "a292290f75062cf77676a77b06bb8e4e1a36675b0430bde7e51fd90ce1c7ce00",
	"imagick/w1024-i8192-warm1024/workers1":  "ab079fb1c69ce2ade1374723ecd8ccf4583b2acad51c7ebcfddef953c43f5d60",
	"imagick/w2048-i16384-warm4096/workers0": "bfe08a160abb2c2b313854e5f96a7ad9a3d8dd5178119ff635ade0827f620b03",
	"imagick/w2048-i16384-warm4096/workers1": "73ba163dc944431ac0404faccc1c9cbf82fe4d315cbc815ada5dd066a38470d5",
}

// sampledGoldenName names one sampledGolden configuration's subtest.
func sampledGoldenName(bench string, window, interval, warm uint64, workers int) string {
	return fmt.Sprintf("%s/w%d-i%d-warm%d/workers%d", bench, window, interval, warm, workers)
}

// profileDigest hashes res's profiles bit for bit, in AllKinds order,
// skipping kinds the run did not model.
func profileDigest(res *Result) string {
	h := sha256.New()
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	fs := func(vs []float64) {
		u(uint64(len(vs)))
		for _, v := range vs {
			f(v)
		}
	}
	stack := func(s *CycleStack) {
		fs(s.Cycles[:])
		f(s.Total)
	}
	matrix := func(m [][]float64) {
		u(uint64(len(m)))
		for _, row := range m {
			fs(row)
		}
	}
	flush := func() {
		h.Write(b)
		b = b[:0]
	}
	u(res.SampleInterval)
	for _, k := range AllKinds() {
		s := res.Sampled[k]
		if s == nil {
			continue
		}
		u(uint64(k))
		u(s.Samples)
		f(s.SampledWeight)
		f(s.LostWeight)
		fs(s.Profile.InstCycles)
		f(s.Profile.TotalCycles)
		if c := s.Categories; c != nil {
			stack(&c.Stack)
			matrix(c.Breakdown)
		}
		flush()
	}
	or := res.Oracle
	fs(or.Profile.InstCycles)
	f(or.Profile.TotalCycles)
	stack(&or.Stack)
	matrix(or.Breakdown)
	flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunSampledProfilesGolden runs each sampledGolden configuration with
// the default profiler matrix, breakdowns and the invariant checker, and
// compares the profiles against sampledProfileGolden. Each runs twice: with
// a calibrated interval, where the whole measured stream fits the pilot
// capture, and with the interval pinned to the same period, where it all
// passes through the stream ring; both must give the pinned digest.
func TestRunSampledProfilesGolden(t *testing.T) {
	for _, g := range sampledGolden {
		name := sampledGoldenName(g.bench, g.window, g.interval, g.warm, g.workers)
		t.Run(name, func(t *testing.T) {
			w, err := workload.LoadScaled(g.bench, 1, 50_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, interval := range []uint64{0, 17} {
				rc := DefaultRunConfig()
				rc.SampleInterval = interval
				rc.Check = true
				rc.WithBreakdown = true
				rc.Sampled = true
				rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles = g.window, g.interval, g.warm
				rc.WindowWorkers = g.workers
				res, err := RunSampled(context.Background(), w, rc)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := profileDigest(res), sampledProfileGolden[name]; got != want {
					t.Errorf("interval %d: profile digest:\n got  %s\n want %s", interval, got, want)
				}
			}
		})
	}
}
