// sink.go defines the streaming result sinks. The runner (run.go)
// guarantees sinks observe points strictly in index order — out-of-order
// trial completions are buffered and flushed as an ordered prefix — so a
// sink is a plain sequential writer and its output is byte-identical at
// every worker-pool size.
package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/stats"
)

// Sink consumes finished campaign points in index order. Begin is called
// once before any point. Exactly one of Point and Aggregate fires per
// point: Point for unreplicated campaigns (replications <= 1, the
// pre-replication record formats byte for byte), Aggregate when the
// campaign replicates (replications > 1). The stream ends with exactly one
// of Close or Abort: Close after the last point of a completed run
// (finalize — flush, and for file-backed sinks publish the output); Abort
// when the run failed or was cancelled (flush what was written, but do NOT
// finalize — a file-backed sink leaves its .partial file in place so an
// interrupted run can never be mistaken for a finished one).
type Sink interface {
	Begin(c *Campaign) error
	Point(p Point, res experiment.Result) error
	Aggregate(p Point, agg Aggregate) error
	Close() error
	Abort() error
}

// Aggregate is the statistics record of one replicated point: the raw
// replicate vector (replicate order) and the per-metric summaries, both
// deterministic at any pool size.
type Aggregate struct {
	Replications int
	Results      []experiment.Result // one per replicate, replicate order
	Metrics      []stats.Summary     // aligned with experiment.ResultMetricNames()
}

// NewAggregate summarizes a replicate vector.
func NewAggregate(rs []experiment.Result) Aggregate {
	return Aggregate{
		Replications: len(rs),
		Results:      rs,
		Metrics:      experiment.AggregateResults(rs),
	}
}

// JSONLSink writes one JSON object per point: the campaign name, point
// index, its parameter tuple (axis order preserved), the fully-defaulted
// scenario, and the result. Replicated points instead produce an
// aggregate record — replication count plus per-metric statistics in
// ResultMetricNames order — optionally preceded by one record per
// replicate (PerReplicate).
//
// A record is assembled in one buffer the sink reuses, from compact
// encoding/json parts: the campaign name (encoded once, in Begin), the
// index, the params, the scenario — the bytes Run hashed, when the point
// carries them — and the result or the metrics. The line is byte for
// byte what json.Marshal of the record as a struct writes, and holds no
// raw newline.
type JSONLSink struct {
	w    io.Writer
	name []byte        // the campaign name as a JSON string; nil omits the field
	rec  record        // the record being assembled
	enc  *json.Encoder // encodes results and summaries into rec

	// PerReplicate additionally emits each replicate of a replicated
	// point as its own record (tagged with the replicate index and the
	// trial scenario with its derived seed) before the aggregate record.
	PerReplicate bool
}

// record is a JSONL record under assembly; the sink's Encoder appends to
// it.
type record []byte

func (r *record) Write(p []byte) (int, error) {
	*r = append(*r, p...)
	return len(p), nil
}

// NewJSONLSink builds a JSONL sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: w}
	s.enc = json.NewEncoder(&s.rec)
	return s
}

// Begin records the campaign name for per-line tagging.
func (s *JSONLSink) Begin(c *Campaign) error {
	s.name = nil
	if c.Spec.Name != "" {
		s.name = appendJSONString(nil, c.Spec.Name)
	}
	return nil
}

// Point writes one record line.
func (s *JSONLSink) Point(p Point, res experiment.Result) error {
	err := s.begin(p, -1)
	if err == nil {
		s.rec = append(s.rec, `,"result":`...)
		err = s.encode(&res)
	}
	if err != nil {
		return fmt.Errorf("campaign: jsonl point %d: %w", p.Index, err)
	}
	return s.end()
}

// Aggregate writes the statistics record of one replicated point — and,
// with PerReplicate, one record per replicate before it.
func (s *JSONLSink) Aggregate(p Point, agg Aggregate) error {
	if s.PerReplicate {
		for r, res := range agg.Results {
			err := s.begin(p, r)
			if err == nil {
				s.rec = append(s.rec, `,"result":`...)
				err = s.encode(&res)
			}
			if err != nil {
				return fmt.Errorf("campaign: jsonl point %d replicate %d: %w", p.Index, r, err)
			}
			if err := s.end(); err != nil {
				return err
			}
		}
	}
	err := s.begin(p, -1)
	if err == nil {
		s.rec = append(s.rec, `,"replications":`...)
		s.rec = strconv.AppendInt(s.rec, int64(agg.Replications), 10)
		err = s.metrics(agg.Metrics)
	}
	if err != nil {
		return fmt.Errorf("campaign: jsonl aggregate %d: %w", p.Index, err)
	}
	return s.end()
}

// begin starts a record: the campaign name, the index, the replicate
// index if replicate ≥ 0, the params and the scenario. A replicate's
// scenario carries its derived seed; a point's is the bytes Run hashed if
// the point carries them.
func (s *JSONLSink) begin(p Point, replicate int) error {
	b := append(s.rec[:0], '{')
	if s.name != nil {
		b = append(b, `"campaign":`...)
		b = append(b, s.name...)
		b = append(b, ',')
	}
	b = append(b, `"index":`...)
	b = strconv.AppendInt(b, int64(p.Index), 10)
	if replicate >= 0 {
		b = append(b, `,"replicate":`...)
		b = strconv.AppendInt(b, int64(replicate), 10)
	}
	b = append(b, `,"params":{`...)
	for i, pr := range p.Params {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, pr.Name)
		b = append(b, ':')
		b = appendJSONString(b, pr.Value)
	}
	s.rec = append(b, `},"scenario":`...)
	if replicate < 0 && p.scenarioJSON != nil {
		s.rec = append(s.rec, p.scenarioJSON...)
		return nil
	}
	sc := p.Scenario
	if replicate >= 0 {
		sc = experiment.Replicate(sc, replicate)
	}
	data, err := sc.MarshalJSON()
	s.rec = append(s.rec, data...)
	return err
}

// metrics appends the per-metric summaries as a JSON object in canonical
// metric order (json.Marshal of a map would sort keys alphabetically).
func (s *JSONLSink) metrics(sums []stats.Summary) error {
	names := experiment.ResultMetricNames()
	s.rec = append(s.rec, `,"metrics":{`...)
	for i := range sums {
		if i > 0 {
			s.rec = append(s.rec, ',')
		}
		s.rec = appendJSONString(s.rec, names[i])
		s.rec = append(s.rec, ':')
		if err := s.encode(&sums[i]); err != nil {
			return err
		}
	}
	s.rec = append(s.rec, '}')
	return nil
}

// encode appends v's encoding/json form, without the newline the Encoder
// ends it with.
func (s *JSONLSink) encode(v any) error {
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	s.rec = s.rec[:len(s.rec)-1]
	return nil
}

// end closes the record and writes it as one line.
func (s *JSONLSink) end() error {
	s.rec = append(s.rec, '}', '\n')
	if _, err := s.w.Write(s.rec); err != nil {
		return fmt.Errorf("campaign: jsonl write: %w", err)
	}
	return nil
}

// Close is a no-op; the caller owns the writer.
func (s *JSONLSink) Close() error { return nil }

// Abort is a no-op: every record was written unbuffered, and the caller
// owns the writer.
func (s *JSONLSink) Abort() error { return nil }

// appendJSONString appends str as encoding/json writes a string. Plain
// printable ASCII needs no escaping and is copied between quotes; any
// other string, or one holding a quote, a backslash or one of the HTML
// characters encoding/json escapes, is encoded by json.Marshal.
func appendJSONString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(str) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

// csvResultColumns is the fixed result half of the CSV header: the
// canonical metric order (delays milliseconds, energies microjoules),
// shared with the aggregate records.
var csvResultColumns = experiment.ResultMetricNames()

// CSVSink writes a header of "index", one column per axis, then the fixed
// result columns, followed by one row per point. For a replicated
// campaign the result half becomes "replications" plus mean/std/ci95
// triples per metric (min/max stay in the JSONL aggregate records).
type CSVSink struct {
	w *csv.Writer
}

// NewCSVSink builds a CSV sink over w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: csv.NewWriter(w)} }

// Begin writes the header row; the campaign's replication count decides
// the per-point or aggregate column set.
func (s *CSVSink) Begin(c *Campaign) error {
	header := append([]string{"index"}, c.AxisNames...)
	if c.Replications() > 1 {
		header = append(header, "replications")
		for _, name := range csvResultColumns {
			header = append(header, name+"_mean", name+"_std", name+"_ci95")
		}
	} else {
		header = append(header, csvResultColumns...)
	}
	if err := s.w.Write(header); err != nil {
		return fmt.Errorf("campaign: csv header: %w", err)
	}
	return nil
}

// Point writes one row.
func (s *CSVSink) Point(p Point, res experiment.Result) error {
	row := make([]string, 0, 1+len(p.Params)+len(csvResultColumns))
	row = append(row, strconv.Itoa(p.Index))
	for _, pr := range p.Params {
		row = append(row, pr.Value)
	}
	row = append(row,
		gf(res.TotalEnergy), gf(res.EnergyPerPacket), gf(res.CtrlEnergy),
		gf(ms(res.MeanDelay)), gf(ms(res.P95Delay)), gf(ms(res.MaxDelay)),
		strconv.Itoa(res.Items), strconv.Itoa(res.Deliveries), strconv.Itoa(res.Expected), gf(res.DeliveryRate),
		u64(res.Timeouts), u64(res.Failovers), u64(res.Drops), u64(res.Duplicates),
		u64(res.SentADV), u64(res.SentREQ), u64(res.SentDATA),
		strconv.Itoa(res.DBFRounds), strconv.Itoa(res.DBFBroadcasts), strconv.Itoa(res.MobilityEvents), strconv.Itoa(res.FailuresInjected),
	)
	if err := s.w.Write(row); err != nil {
		return fmt.Errorf("campaign: csv point %d: %w", p.Index, err)
	}
	return nil
}

// Aggregate writes one row of per-metric mean/std/ci95 triples.
func (s *CSVSink) Aggregate(p Point, agg Aggregate) error {
	row := make([]string, 0, 2+len(p.Params)+3*len(agg.Metrics))
	row = append(row, strconv.Itoa(p.Index))
	for _, pr := range p.Params {
		row = append(row, pr.Value)
	}
	row = append(row, strconv.Itoa(agg.Replications))
	for _, m := range agg.Metrics {
		row = append(row, gf(m.Mean), gf(m.Std), gf(m.CI95))
	}
	if err := s.w.Write(row); err != nil {
		return fmt.Errorf("campaign: csv aggregate %d: %w", p.Index, err)
	}
	return nil
}

// Close flushes buffered rows.
func (s *CSVSink) Close() error {
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		return fmt.Errorf("campaign: csv flush: %w", err)
	}
	return nil
}

// Abort flushes buffered rows, same as Close — the csv.Writer buffers, and
// an interrupted run's flushed prefix is what makes its partial output
// inspectable. Finalization (if any) is the wrapping FileSink's job.
func (s *CSVSink) Abort() error { return s.Close() }

func gf(v float64) string        { return strconv.FormatFloat(v, 'g', -1, 64) }
func u64(v uint64) string        { return strconv.FormatUint(v, 10) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PointResult is one recorded (point, result) pair.
type PointResult struct {
	Point  Point
	Result experiment.Result
}

// PointAggregate is one recorded (point, aggregate) pair.
type PointAggregate struct {
	Point     Point
	Aggregate Aggregate
}

// MemorySink records everything it sees; the in-process sink for tests
// and for callers that want the tagged stream without serialization.
type MemorySink struct {
	Campaign   *Campaign
	Points     []PointResult
	Aggregates []PointAggregate
	Closed     bool
	Aborted    bool
}

// Begin records the campaign.
func (s *MemorySink) Begin(c *Campaign) error {
	s.Campaign = c
	return nil
}

// Point records the pair. It drops the scenario bytes Run may attach, so
// a recorded point equals the campaign's and holding every point does
// not hold every encoding.
func (s *MemorySink) Point(p Point, res experiment.Result) error {
	p.scenarioJSON = nil
	s.Points = append(s.Points, PointResult{p, res})
	return nil
}

// Aggregate records the pair, dropping the scenario bytes as Point does.
func (s *MemorySink) Aggregate(p Point, agg Aggregate) error {
	p.scenarioJSON = nil
	s.Aggregates = append(s.Aggregates, PointAggregate{p, agg})
	return nil
}

// Close marks the stream complete.
func (s *MemorySink) Close() error {
	s.Closed = true
	return nil
}

// Abort marks the stream interrupted.
func (s *MemorySink) Abort() error {
	s.Aborted = true
	return nil
}
