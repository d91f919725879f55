package measure

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// recordJSON is the stable on-disk form of one measurement, in the spirit
// of TVM's tuning-record log lines: enough to re-apply the best schedules
// without re-searching. It doubles as the fleet's wire format: a request
// is a batch of record lines with the sentinel latency, a response the
// same lines with latencies filled in.
type recordJSON struct {
	TaskID    string                           `json:"task_id"`
	TaskName  string                           `json:"task_name"`
	Spatial   [][schedule.NumSpatialLevels]int `json:"spatial_tiles"`
	Reduce    [][schedule.NumReduceLevels]int  `json:"reduce_tiles"`
	Unroll    int                              `json:"unroll"`
	VectorLen int                              `json:"vector_len"`
	Shared    bool                             `json:"use_shared"`
	TC        bool                             `json:"tensorcore"`
	LatencyUS float64                          `json:"latency_us"` // -1 marks failed builds
	// LatencyBits is the exact float64 bit pattern of the latency in
	// seconds (hex), written alongside the human-readable microsecond
	// field. Readers prefer it when present: the us scaling loses up to an
	// ulp per round trip, which would break the bitwise determinism
	// contract for warm-started sessions and for fleet-measured batches.
	LatencyBits string `json:"latency_bits,omitempty"`
}

// WriteRecords streams measurement records as JSON lines (the store's
// segment format and the fleet's wire format).
func WriteRecords(w io.Writer, recs []costmodel.Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		// Anything that is not a finite positive latency is a failed
		// build and maps to the -1 sentinel. NaN and ±Inf must never
		// reach the encoder: json.Marshal rejects them mid-stream,
		// leaving a log with some lines written and the rest lost.
		// Classify on the latency itself, not the scaled value: a huge
		// finite latency can overflow the microsecond field to +Inf
		// (found by FuzzCodecRoundTrip), in which case the display
		// field saturates and readers recover exactness from the bits.
		lat := r.Latency * 1e6
		bits := ""
		if math.IsNaN(r.Latency) || math.IsInf(r.Latency, 0) || r.Latency < 0 {
			lat = -1
		} else {
			bits = strconv.FormatUint(math.Float64bits(r.Latency), 16)
			if math.IsInf(lat, 0) {
				lat = math.MaxFloat64
			}
		}
		line := recordJSON{
			TaskID:      r.Task.ID,
			TaskName:    r.Task.Name,
			Spatial:     r.Sched.SpatialTiles,
			Reduce:      r.Sched.ReduceTiles,
			Unroll:      r.Sched.UnrollStep,
			VectorLen:   r.Sched.VectorLen,
			Shared:      r.Sched.UseShared,
			TC:          r.Sched.TensorCore,
			LatencyUS:   lat,
			LatencyBits: bits,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecords loads a JSON-lines tuning log. Tasks are resolved by ID from
// the provided set; records of unknown tasks are skipped (a log may cover
// more networks than the current session).
func ReadRecords(r io.Reader, tasks []*ir.Task) ([]costmodel.Record, error) {
	byID := make(map[string]*ir.Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	var out []costmodel.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line recordJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// A read error hands the scanner's partial last line over as
			// a token; report the read error (e.g. a body-size limit),
			// not the torn line it caused.
			if rerr := sc.Err(); rerr != nil {
				return nil, rerr
			}
			return nil, fmt.Errorf("measure: record line %d: %w", lineNo, err)
		}
		task, ok := byID[line.TaskID]
		if !ok {
			continue
		}
		sch := &schedule.Schedule{
			SpatialTiles: line.Spatial,
			ReduceTiles:  line.Reduce,
			UnrollStep:   line.Unroll,
			VectorLen:    line.VectorLen,
			UseShared:    line.Shared,
			TensorCore:   line.TC,
		}
		if err := sch.Validate(task); err != nil {
			return nil, fmt.Errorf("measure: record line %d: %w", lineNo, err)
		}
		out = append(out, costmodel.Record{Task: task, Sched: sch, Latency: decodeLatency(line)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeLatency recovers the latency in seconds, preferring the exact bit
// pattern over the rounded microsecond field. A bits value that disagrees
// with the sentinel or is non-finite is ignored (hand-edited logs).
func decodeLatency(line recordJSON) float64 {
	if line.LatencyUS < 0 {
		return math.Inf(1)
	}
	if line.LatencyBits != "" {
		if b, err := strconv.ParseUint(line.LatencyBits, 16, 64); err == nil {
			if lat := math.Float64frombits(b); !math.IsNaN(lat) && !math.IsInf(lat, 0) && lat >= 0 {
				return lat
			}
		}
	}
	return line.LatencyUS / 1e6
}
