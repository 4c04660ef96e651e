package planstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/mapping"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/vf"
)

// The on-disk container (format 4) is
//
//	magic "AIMPLAN1" | u32 format version | code-version string |
//	key id string | u64 payload length | payload | sha256(payload)
//
// and the payload is a flat little-endian walk of the Plan:
//
//	network | baseline Compiled | AIM Compiled
//
// It holds what Execute and Compiled.Quality read: per layer plan the
// Hamming rate, WDS δ, segment count and wave rounds; the waves with
// their tasks and mappings; and the HR statistics. The network comes
// once, as its name, Transformer flag, Profile and per-layer shape
// (name, kind, rows, cols, SigmaMul). The float weights and the weight
// codes compiled from them are not written: the simulator draws its
// codes from each task's HR, so nothing after compile reads either,
// and a decoded plan's layers have nil Weights and its layer plans a
// nil Quant. A file's size therefore depends on the network's layer
// and wave structure, never on its weight count. Both Compiled
// artifacts write every aliased pointer as an index — LayerPlan.Layer
// as an index into Net.Layers, Wave.Plans as indices into
// Compiled.Plans — so decoding rebuilds the exact sharing structure
// Compile produced, not a deep-copied lookalike. Floats travel as
// IEEE-754 bit patterns (math.Float64bits), so a decoded plan is
// bit-exact, and Execute on it is byte-identical to Execute on the
// freshly compiled original.
//
// The encoding is canonical — one plan has exactly one encoding — so
// a decoder rejects a payload with bytes left after the AIM artifact
// as corrupt.
const (
	// magic identifies a plan file; it never changes.
	magic = "AIMPLAN1"
	// FormatVersion is the container layout version. Bump it when the
	// byte layout itself changes (new field, different framing).
	FormatVersion = 4
)

// CodeVersion names the compiler/simulator generation a stored plan
// belongs to. It is part of the content hash, so bumping it
// invalidates every stored plan at once (old entries become
// unreachable and are swept lazily).
//
// Bump rule: increment the trailing counter whenever a change affects
// what Compile produces or how Execute consumes it — quantization or
// LHR/WDS changes, mapping strategy changes, wave scheduling, RNG
// draw-order changes, zoo weight generation, or any codec layout
// change (bump FormatVersion too in that case). Pure runtime knobs
// (β, worker counts, fidelity tier) never require a bump: they are
// outside the plan by design.
const CodeVersion = "aim-plan-4"

// ErrCorrupt reports a plan file that failed structural or integrity
// validation: wrong magic, truncation, a payload hash mismatch, or a
// key that does not match the requested one. Stores treat it as a
// miss and recompile.
var ErrCorrupt = errors.New("planstore: corrupt plan file")

// ErrStale reports a structurally valid plan file written by a
// different format or code version. Stores treat it as a miss and
// recompile; the entry is unreachable under the current hash anyway.
var ErrStale = errors.New("planstore: plan file from a different version")

// Header is the plan container's envelope: everything an entry states
// about itself before the payload. The integrity checker reads it to
// classify entries without paying a full decode — and to re-derive the
// content-addressed name an entry should be stored under.
type Header struct {
	// FormatVersion is the container layout version the entry was
	// written with.
	FormatVersion uint32
	// CodeVersion is the compiler/simulator generation string.
	CodeVersion string
	// KeyID is the canonical key serialization (see Key.ID).
	KeyID string
	// PayloadLen is the declared payload length in bytes.
	PayloadLen uint64
}

// ReadHeader parses just the envelope of a plan file: magic, format
// version, code version, key id and declared payload length. It
// validates nothing beyond the envelope's own structure — a stale or
// even corrupt payload still yields its header, which is exactly what
// a checker classifying entries needs. Like Decode it never panics on
// hostile bytes.
func ReadHeader(data []byte) (Header, error) {
	r := reader{data: data}
	if string(r.bytes(len(magic))) != magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := Header{}
	h.FormatVersion = r.u32()
	h.CodeVersion = r.str()
	h.KeyID = r.str()
	h.PayloadLen = r.u64()
	if r.err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	return h, nil
}

// ID returns the canonical serialization of the key — the string the
// content hash covers and the file header carries.
func (k Key) ID() string { return k.id() }

// ParseID parses a canonical key id (as returned by Key.ID and stored
// in every entry's header) back into a Key. It is the checker's
// inverse of ID: a stored entry names its own key, so a verifier can
// re-derive the content-addressed name the entry must live under.
func ParseID(id string) (Key, error) {
	var k Key
	rest := id
	next := func(field string) (string, error) {
		if !strings.HasPrefix(rest, field+"=") {
			return "", fmt.Errorf("planstore: key id %q: want %s=", id, field)
		}
		rest = rest[len(field)+1:]
		val := rest
		if i := strings.IndexByte(rest, '|'); i >= 0 {
			val, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		return val, nil
	}
	net, err := next("net")
	if err != nil {
		return Key{}, err
	}
	mode, err := next("mode")
	if err != nil {
		return Key{}, err
	}
	k.Network, k.Mode = net, mode
	for _, f := range []struct {
		name string
		dst  *int
	}{{"bits", &k.Bits}, {"delta", &k.Delta}} {
		s, err := next(f.name)
		if err != nil {
			return Key{}, err
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return Key{}, fmt.Errorf("planstore: key id %q: bad %s: %v", id, f.name, err)
		}
		*f.dst = v
	}
	s, err := next("seed")
	if err != nil {
		return Key{}, err
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Key{}, fmt.Errorf("planstore: key id %q: bad seed: %v", id, err)
	}
	k.Seed = seed
	if rest != "" {
		return Key{}, fmt.Errorf("planstore: key id %q: trailing %q", id, rest)
	}
	if got := k.id(); got != id {
		return Key{}, fmt.Errorf("planstore: key id %q is not canonical (re-renders as %q)", id, got)
	}
	return k, nil
}

// Encode serializes a compiled plan into the versioned container.
// A size pass walks the plan once without writing, so the file is
// built in a single buffer allocated at its final size.
func Encode(k Key, p *core.Plan) ([]byte, error) {
	if p == nil || p.Net == nil || p.Baseline == nil || p.AIM == nil {
		return nil, errors.New("planstore: incomplete plan")
	}
	id := k.id()
	size := writer{sizing: true}
	if err := size.file(id, p); err != nil {
		return nil, err
	}
	w := writer{buf: make([]byte, 0, size.n)}
	if err := w.file(id, p); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// Decode parses a plan file previously written by Encode for the same
// key. It returns ErrStale for a valid file from another
// format/code version and ErrCorrupt for anything structurally or
// cryptographically wrong; it never panics on hostile bytes. The
// returned plan shares nothing with any other plan.
func Decode(k Key, data []byte) (*core.Plan, error) {
	r := reader{data: data}
	if string(r.bytes(len(magic))) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.u32(); r.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: format %d (want %d)", ErrStale, v, FormatVersion)
	}
	if cv := r.str(); r.err == nil && cv != CodeVersion {
		return nil, fmt.Errorf("%w: code version %q (want %q)", ErrStale, cv, CodeVersion)
	}
	if id := r.str(); r.err == nil && id != k.id() {
		return nil, fmt.Errorf("%w: stored key %q does not match %q", ErrCorrupt, id, k.id())
	}
	n := int(r.u64())
	payload := r.bytes(n)
	sum := r.bytes(sha256.Size)
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-r.off)
	}
	want := sha256.Sum256(payload)
	if string(sum) != string(want[:]) {
		return nil, fmt.Errorf("%w: payload hash mismatch", ErrCorrupt)
	}

	pr := reader{data: payload}
	net := pr.network()
	baseline := pr.compiled(net)
	aim := pr.compiled(net)
	if pr.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, pr.err)
	}
	if pr.off != len(payload) {
		return nil, fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, len(payload)-pr.off)
	}
	return &core.Plan{Net: net, Baseline: baseline, AIM: aim}, nil
}

// ---- writer ----

// writer produces the little-endian encoding. Encode runs it twice
// over the same plan: first as a size pass (sizing set), which only
// counts the bytes it would write in n, then for real into a buffer
// allocated at that size, so the file never grows or moves. Methods
// that can observe an inconsistent plan (a dangling layer pointer)
// return an error; plain scalar writes cannot fail.
type writer struct {
	buf    []byte
	sizing bool
	n      int
}

// put reserves k bytes at the end of the encoding and returns them for
// the caller to fill; the size pass only counts them and returns nil.
func (w *writer) put(k int) []byte {
	if w.sizing {
		w.n += k
		return nil
	}
	n := len(w.buf)
	w.buf = slices.Grow(w.buf, k)[:n+k]
	return w.buf[n:]
}

// len is the number of bytes written (or, in the size pass, counted).
func (w *writer) len() int {
	if w.sizing {
		return w.n
	}
	return len(w.buf)
}

func (w *writer) u8(v byte) {
	if b := w.put(1); b != nil {
		b[0] = v
	}
}

func (w *writer) u32(v uint32) {
	if b := w.put(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

func (w *writer) u64(v uint64) {
	if b := w.put(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// patchU64 overwrites the u64 written at offset at; the size pass has
// nothing to patch.
func (w *writer) patchU64(at int, v uint64) {
	if !w.sizing {
		binary.LittleEndian.PutUint64(w.buf[at:], v)
	}
}

func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) int(v int)     { w.i64(int64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	copy(w.put(len(s)), s)
}

func (w *writer) ints(v []int) {
	w.u64(uint64(len(v)))
	b := w.put(8 * len(v))
	if b == nil {
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(x)))
	}
}

func (w *writer) floats(v []float64) {
	w.u64(uint64(len(v)))
	b := w.put(8 * len(v))
	if b == nil {
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// file writes the whole container: the envelope, the payload, then
// the payload's length and hash once both are known.
func (w *writer) file(id string, p *core.Plan) error {
	copy(w.put(len(magic)), magic)
	w.u32(FormatVersion)
	w.str(CodeVersion)
	w.str(id)
	at := w.len()
	w.u64(0)
	start := w.len()
	if err := w.payload(p); err != nil {
		return err
	}
	w.patchU64(at, uint64(w.len()-start))
	var sum [sha256.Size]byte
	if !w.sizing {
		sum = sha256.Sum256(w.buf[start:])
	}
	copy(w.put(len(sum)), sum[:])
	return nil
}

// payload writes the network, then both compiled artifacts.
func (w *writer) payload(p *core.Plan) error {
	w.network(p.Net)
	if err := w.compiled(p.Baseline, p.Net); err != nil {
		return err
	}
	return w.compiled(p.AIM, p.Net)
}

func (w *writer) network(n *model.Network) {
	w.str(n.Name)
	w.bool(n.Transformer)
	p := n.Profile
	w.f64(p.LaplaceB)
	w.f64(p.OutlierFrac)
	w.f64(p.OutlierSigma)
	w.f64(p.Lambda)
	w.int(int(p.Acc.Metric))
	w.f64(p.Acc.Base)
	w.f64(p.Acc.DriftSens)
	w.f64(p.Acc.DriftFree)
	w.f64(p.Acc.RegGain)
	w.f64(p.Acc.PruneSens)
	w.u64(uint64(len(n.Layers)))
	for _, l := range n.Layers {
		w.str(l.Name)
		w.int(int(l.Kind))
		w.int(l.Rows)
		w.int(l.Cols)
		w.f64(l.SigmaMul)
	}
}

func (w *writer) compiled(c *compiler.Compiled, net *model.Network) error {
	if c.Net != net {
		return errors.New("planstore: compiled artifact does not share the plan's network")
	}
	layerIndex := make(map[*model.Layer]int, len(net.Layers))
	for i, l := range net.Layers {
		layerIndex[l] = i
	}
	planIndex := make(map[*compiler.LayerPlan]int, len(c.Plans))

	o := c.Options
	w.int(o.Bits)
	w.bool(o.UseLHR)
	w.int(o.WDSDelta)
	keys := make([]string, 0, len(o.PerOpDelta))
	for k := range o.PerOpDelta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u64(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.int(o.PerOpDelta[k])
	}
	w.int(int(o.Strategy))
	w.int(int(o.Mode))
	w.i64(o.Seed)

	w.u64(uint64(len(c.Plans)))
	for i, p := range c.Plans {
		planIndex[p] = i
		li, ok := layerIndex[p.Layer]
		if !ok {
			return fmt.Errorf("planstore: plan %d references a layer outside the network", i)
		}
		w.int(li)
		w.f64(p.HR)
		w.int(p.Delta)
		w.int(p.Segments)
		w.int(p.WaveRounds)
	}

	w.u64(uint64(len(c.Waves)))
	for wi, wv := range c.Waves {
		w.u64(uint64(len(wv.Plans)))
		for _, p := range wv.Plans {
			pi, ok := planIndex[p]
			if !ok {
				return fmt.Errorf("planstore: wave %d references a plan outside the artifact", wi)
			}
			w.int(pi)
		}
		w.u64(uint64(len(wv.Tasks)))
		for _, t := range wv.Tasks {
			w.str(t.Op)
			w.int(t.OpID)
			w.f64(t.HR)
			w.bool(t.InputDetermined)
		}
		if wv.Map == nil {
			return fmt.Errorf("planstore: wave %d has no mapping", wi)
		}
		w.ints(wv.Map.Assign)
		cfg := wv.Map.Cfg
		w.int(int(cfg.Kind))
		w.int(cfg.Groups)
		w.int(cfg.MacrosPerGroup)
		w.int(cfg.BanksPerMacro)
		w.int(cfg.CellsPerBank)
		w.int(cfg.WeightBits)
		w.int(wv.Rounds)
	}

	w.f64(c.Stats.Average)
	w.f64(c.Stats.Max)
	w.floats(c.Stats.PerLayer)
	w.f64(c.Stats.MeanDrift)
	return nil
}

// ---- reader ----

// reader walks the encoding with a sticky error: the first structural
// problem (truncation, an implausible length, an out-of-range index)
// poisons every later read, so decode logic reads straight through and
// checks err once. Every length is validated against the bytes that
// remain before anything is allocated, and a bulk read takes its whole
// slice at once — hostile input cannot cause a panic, and no
// allocation exceeds a small constant multiple of the file size.
type reader struct {
	data []byte
	off  int
	err  error
	// names interns task op names for one decode: they repeat across
	// waves and stages, so each distinct name is allocated once.
	names map[string]string
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		r.fail("truncated at offset %d (want %d bytes, have %d)", r.off, n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) int() int     { return int(r.i64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool { return r.u8() != 0 }

// length reads a count and sanity-checks it against the smallest
// possible per-element footprint, so a corrupted length cannot demand
// an allocation out of proportion to the file itself.
func (r *reader) length(elemSize int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if max := uint64(len(r.data)-r.off) / uint64(elemSize); n > max {
		r.fail("implausible length %d at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.length(1)
	return string(r.bytes(n))
}

// name reads a string through the decode's intern table.
func (r *reader) name() string {
	b := r.bytes(r.length(1))
	if r.err != nil {
		return ""
	}
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	if r.names == nil {
		r.names = make(map[string]string)
	}
	s := string(b)
	r.names[s] = s
	return s
}

// words reads a count of elemSize-byte elements and returns their
// bytes as one slice, or nil after an error.
func (r *reader) words(elemSize int) (int, []byte) {
	n := r.length(elemSize)
	b := r.bytes(elemSize * n)
	if r.err != nil {
		return 0, nil
	}
	return n, b
}

func (r *reader) ints() []int {
	n, b := r.words(8)
	if b == nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

func (r *reader) floats() []float64 {
	n, b := r.words(8)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (r *reader) network() *model.Network {
	n := &model.Network{}
	n.Name = r.str()
	n.Transformer = r.bool()
	n.Profile.LaplaceB = r.f64()
	n.Profile.OutlierFrac = r.f64()
	n.Profile.OutlierSigma = r.f64()
	n.Profile.Lambda = r.f64()
	n.Profile.Acc.Metric = quant.Metric(r.int())
	n.Profile.Acc.Base = r.f64()
	n.Profile.Acc.DriftSens = r.f64()
	n.Profile.Acc.DriftFree = r.f64()
	n.Profile.Acc.RegGain = r.f64()
	n.Profile.Acc.PruneSens = r.f64()
	// A layer takes at least 40 bytes: name length, kind, rows, cols
	// and SigmaMul.
	nl := r.length(40)
	if r.err != nil {
		return n
	}
	n.Layers = make([]*model.Layer, 0, nl)
	for i := 0; i < nl && r.err == nil; i++ {
		l := &model.Layer{}
		l.Name = r.str()
		l.Kind = model.OpKind(r.int())
		l.Rows = r.int()
		l.Cols = r.int()
		l.SigmaMul = r.f64()
		n.Layers = append(n.Layers, l)
	}
	return n
}

func (r *reader) compiled(net *model.Network) *compiler.Compiled {
	c := &compiler.Compiled{Net: net}
	c.Options.Bits = r.int()
	c.Options.UseLHR = r.bool()
	c.Options.WDSDelta = r.int()
	if nd := r.length(1); nd > 0 {
		c.Options.PerOpDelta = make(map[string]int, nd)
		for i := 0; i < nd && r.err == nil; i++ {
			k := r.str()
			c.Options.PerOpDelta[k] = r.int()
		}
	}
	c.Options.Strategy = compiler.Strategy(r.int())
	c.Options.Mode = vf.Mode(r.int())
	c.Options.Seed = r.i64()

	// A layer plan takes 40 bytes: layer index, HR, Delta, Segments
	// and WaveRounds.
	np := r.length(40)
	if r.err != nil {
		return c
	}
	c.Plans = make([]*compiler.LayerPlan, 0, np)
	for i := 0; i < np && r.err == nil; i++ {
		p := &compiler.LayerPlan{}
		li := r.int()
		if r.err == nil {
			if li < 0 || li >= len(net.Layers) {
				r.fail("layer index %d out of range [0,%d)", li, len(net.Layers))
			} else {
				p.Layer = net.Layers[li]
			}
		}
		p.HR = r.f64()
		p.Delta = r.int()
		p.Segments = r.int()
		p.WaveRounds = r.int()
		c.Plans = append(c.Plans, p)
	}

	nw := r.length(1)
	if r.err != nil {
		return c
	}
	c.Waves = make([]*compiler.Wave, 0, nw)
	for i := 0; i < nw && r.err == nil; i++ {
		wv := &compiler.Wave{}
		if npl := r.length(8); npl > 0 {
			wv.Plans = make([]*compiler.LayerPlan, npl)
		}
		for j := range wv.Plans {
			pi := r.int()
			if r.err != nil {
				break
			}
			if pi < 0 || pi >= len(c.Plans) {
				r.fail("wave plan index %d out of range [0,%d)", pi, len(c.Plans))
				break
			}
			wv.Plans[j] = c.Plans[pi]
		}
		// A task takes at least 25 bytes: op name length, OpID, HR
		// and InputDetermined.
		if nt := r.length(25); nt > 0 {
			wv.Tasks = make([]mapping.Task, nt)
		}
		for j := range wv.Tasks {
			t := &wv.Tasks[j]
			t.Op = r.name()
			t.OpID = r.int()
			t.HR = r.f64()
			t.InputDetermined = r.bool()
			if r.err != nil {
				break
			}
		}
		assign := r.ints()
		var cfg pim.Config
		cfg.Kind = pim.MacroKind(r.int())
		cfg.Groups = r.int()
		cfg.MacrosPerGroup = r.int()
		cfg.BanksPerMacro = r.int()
		cfg.CellsPerBank = r.int()
		cfg.WeightBits = r.int()
		if r.err == nil {
			wv.Map = &mapping.Mapping{Assign: assign, Cfg: cfg}
		}
		wv.Rounds = r.int()
		c.Waves = append(c.Waves, wv)
	}

	c.Stats.Average = r.f64()
	c.Stats.Max = r.f64()
	c.Stats.PerLayer = r.floats()
	c.Stats.MeanDrift = r.f64()
	return c
}
