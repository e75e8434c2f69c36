// Package resultstore is the persistent, content-addressed layer under the
// experiment runner's in-process memo table. A simulation result is a pure
// function of its key — (config fingerprint, workload, effective budget,
// scheduled, simulator code version) — so a completed run can be written to
// disk once and served to every later process that asks for the same key:
// the paper's whole methodology is re-running the same trace-driven
// simulations across a design grid, and with a store the grid simulates
// once per code version instead of once per invocation.
//
// Entries are single JSON files named by the SHA-256 of their key, written
// atomically (temp file + rename) and checksummed. A read verifies the
// checksum and the embedded key before trusting the payload; anything that
// fails verification is quarantined (renamed *.corrupt) and reported as a
// miss, so corruption degrades to recomputation, never to a crash or a
// wrong answer — the same degrade-don't-abort contract the fault-isolation
// layer gives individual jobs.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/sample"
	"aurora/internal/simfault"
)

// Key identifies one simulation result. Two processes that build the same
// key are guaranteed (by the determinism contract the aurora-lint suite
// enforces) to compute byte-identical results, which is what makes the
// store safe to share between processes and machines. keyflow
// (aurora-lint) checks that every field reaches hash — the injective
// encoding is only injective over the fields it actually hashes.
//
//aurora:identity(hash)
type Key struct {
	Fingerprint string `json:"fingerprint"` // core.Config.Fingerprint()
	Workload    string `json:"workload"`
	Budget      uint64 `json:"budget"` // effective instruction budget
	Scheduled   bool   `json:"scheduled"`
	// Sample is the sampled-mode discriminator: empty for exact
	// (full-simulation) results, sample.Params.Key() for sampled estimates.
	// It participates in the content address, so a sampled estimate can
	// never be returned where an exact result was asked for, or vice versa.
	Sample      string `json:"sample,omitempty"`
	CodeVersion string `json:"code_version"`
}

// hash returns the content address of the key: a SHA-256 over every field
// with unambiguous separators. The code version participates, so entries
// written by a different simulator build can never be returned.
func (k Key) hash() string {
	h := sha256.New()
	for _, part := range []string{
		k.Fingerprint, k.Workload,
		strconv.FormatUint(k.Budget, 10),
		strconv.FormatBool(k.Scheduled),
		k.Sample,
		k.CodeVersion,
	} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FaultRecord is the serialized form of a persistable *simfault.Fault.
// The recovered stack is deliberately dropped: it describes one process's
// goroutines, not the job.
type FaultRecord struct {
	Config      string `json:"config"`
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload"`
	Scheduled   bool   `json:"scheduled,omitempty"`
	Subsystem   string `json:"subsystem"`
	Cycle       uint64 `json:"cycle"`
	Panic       string `json:"panic"`
}

// Fault rebuilds the typed fault a stored record describes.
func (r *FaultRecord) Fault() *simfault.Fault {
	return &simfault.Fault{
		Job: simfault.Job{
			Config:      r.Config,
			Fingerprint: r.Fingerprint,
			Workload:    r.Workload,
			Scheduled:   r.Scheduled,
		},
		Subsystem: r.Subsystem,
		Cycle:     r.Cycle,
		Panic:     r.Panic,
	}
}

func recordFault(f *simfault.Fault) *FaultRecord {
	return &FaultRecord{
		Config:      f.Config,
		Fingerprint: f.Fingerprint,
		Workload:    f.Workload,
		Scheduled:   f.Scheduled,
		Subsystem:   f.Subsystem,
		Cycle:       f.Cycle,
		Panic:       fmt.Sprint(f.Panic),
	}
}

// entry is the on-disk document: the full key (so a read can verify the
// file answers the question asked), exactly one of report/sampled/fault,
// and a checksum over the rest of the document. Exact keys (Key.Sample
// empty) carry a Report; sampled keys carry a Sampled estimate; either kind
// may carry a Fault instead.
type entry struct {
	Key     Key            `json:"key"`
	Report  *core.Report   `json:"report,omitempty"`
	Sampled *sample.Report `json:"sampled,omitempty"`
	Fault   *FaultRecord   `json:"fault,omitempty"`
	Sum     string         `json:"sum"`
}

// sum computes the entry checksum: SHA-256 of the canonical JSON encoding
// with the Sum field empty. encoding/json renders struct fields in
// declaration order and floats in shortest round-trip form, so the
// encoding — and therefore the checksum — is deterministic.
func (e entry) sum() (string, error) {
	e.Sum = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(s[:]), nil
}

// Sentinel errors for callers that care why a Save was refused.
var (
	ErrReadOnly       = errors.New("resultstore: store is read-only")
	ErrNotPersistable = errors.New("resultstore: fault is environment-dependent, not persistable")
)

// Stats counts store behaviour since Open. Corrupt counts entries that
// failed verification and were quarantined; every one also counts as a
// miss, because that is what the caller observed.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	PutErrors uint64
	Corrupt   uint64
}

// Store is an on-disk content-addressed result store rooted at one
// directory. All methods are safe for concurrent use by any number of
// goroutines and processes: writes are atomic renames, and racing writers
// of the same key write byte-identical content, so last-writer-wins is
// indistinguishable from first-writer-wins.
type Store struct {
	dir      string
	version  string
	readOnly bool

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	putErrors atomic.Uint64
	corrupt   atomic.Uint64
}

// Open opens (creating if needed) a store rooted at dir, keyed by the
// process's CodeVersion. Opening never scans the directory; entries are
// touched only when their key is asked for.
func Open(dir string) (*Store, error) {
	return open(dir, CodeVersion(), false)
}

// OpenReadOnly opens a store that serves hits but refuses writes — for
// sharing a populated store with runs that must not mutate it.
func OpenReadOnly(dir string) (*Store, error) {
	return open(dir, CodeVersion(), true)
}

func open(dir, version string, readOnly bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("resultstore: empty store directory")
	}
	s := &Store{dir: dir, version: version, readOnly: readOnly}
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	publishStore(s)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the code version this store handle keys entries with.
func (s *Store) Version() string { return s.version }

// ReadOnly reports whether writes are refused.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// key builds the full store key for the runner-facing job coordinates;
// sampleKey is empty for exact jobs.
func (s *Store) key(fingerprint, workload string, budget uint64, scheduled bool, sampleKey string) Key {
	return Key{
		Fingerprint: fingerprint,
		Workload:    workload,
		Budget:      budget,
		Scheduled:   scheduled,
		Sample:      sampleKey,
		CodeVersion: s.version,
	}
}

// path returns the entry file for a key: two-level fan-out on the leading
// hash byte keeps directories small on big grids.
func (s *Store) path(k Key) string {
	h := k.hash()
	return filepath.Join(s.dir, "v1", h[:2], h+".json")
}

// Lookup implements the harness Store contract: it returns the stored
// report or typed fault for the job coordinates, keyed under this
// process's code version. ok is false on any miss — absent entry, stale
// code version, or an entry that failed verification (which is quarantined
// on the way out).
func (s *Store) Lookup(fingerprint, workload string, budget uint64, scheduled bool) (*core.Report, *simfault.Fault, bool) {
	e, ok := s.get(s.key(fingerprint, workload, budget, scheduled, ""))
	if !ok {
		return nil, nil, false
	}
	return e.Report, e.fault(), true
}

// Sampled-mode persistence. A sampled estimate is just as deterministic as
// an exact report — a pure function of (config, workload, budget, sampling
// parameters, code version) — so it is stored the same way, but under a key
// whose Sample field carries sample.Params.Key(). The discriminator is part
// of the content address, so sampled estimates and exact results can never
// alias: asking for one can only ever return that kind. Sampled runs never
// combine with the §6 scheduling pass (the harness rejects it), so their
// keys always have Scheduled false.

// LookupSampled implements the harness SampledStore contract: it returns
// the stored estimate or typed fault for the sampled job coordinates.
// sampleKey must be non-empty (sample.Params.Key()); an empty one names no
// sampled job and misses.
func (s *Store) LookupSampled(fingerprint, workload string, budget uint64, sampleKey string) (*sample.Report, *simfault.Fault, bool) {
	if sampleKey == "" {
		s.misses.Add(1)
		return nil, nil, false
	}
	e, ok := s.get(s.key(fingerprint, workload, budget, false, sampleKey))
	if !ok {
		return nil, nil, false
	}
	return e.Sampled, e.fault(), true
}

// valid reports whether e holds exactly one payload of the kind its key
// names: an exact key (empty Sample) a Report xor a Fault, a sampled key a
// Sampled estimate xor a Fault — and a fault only if it is persistable.
func (e *entry) valid() bool {
	result, foreign := e.Report != nil, e.Sampled != nil
	if e.Key.Sample != "" {
		result, foreign = foreign, result
	}
	if foreign || result == (e.Fault != nil) {
		return false
	}
	return e.Fault == nil || e.Fault.Fault().Persistable()
}

// fault rebuilds the entry's typed fault, nil when it holds a result.
func (e *entry) fault() *simfault.Fault {
	if e.Fault == nil {
		return nil
	}
	return e.Fault.Fault()
}

// get loads and verifies the entry stored under k — checksum first, then
// the embedded key, then a payload of the kind k names (see valid) — and
// counts the hit. Anything that fails verification is quarantined and
// reported as a miss.
func (s *Store) get(k Key) (*entry, bool) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantine(path, "undecodable entry")
		return nil, false
	}
	want, err := e.sum()
	if err != nil || e.Sum != want {
		s.quarantine(path, "checksum mismatch")
		return nil, false
	}
	if e.Key != k {
		// The file answers a different question than its name claims —
		// a tampered or misplaced entry, never trusted.
		s.quarantine(path, "key mismatch")
		return nil, false
	}
	if !e.valid() {
		// Exactly one payload of the kind the key names, and never an
		// environment-dependent fault: anything else is a malformed write.
		s.quarantine(path, "invalid payload")
		return nil, false
	}
	s.hits.Add(1)
	return &e, true
}

// quarantine moves a failed entry aside (best-effort: on a read-only
// directory the rename fails and the corrupt file simply stays) and
// reports the read as a corrupt miss.
func (s *Store) quarantine(path, _ string) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	os.Rename(path, path+".corrupt") //nolint:errcheck // best-effort; read-only stores keep the file
}

// Save implements the harness Store contract: persist one finished job.
// Environment-dependent faults are refused (ErrNotPersistable); see
// simfault.Fault.Persistable.
func (s *Store) Save(fingerprint, workload string, budget uint64, scheduled bool, rep *core.Report, f *simfault.Fault) error {
	return s.put(s.key(fingerprint, workload, budget, scheduled, ""), rep, nil, f)
}

// SaveSampled implements the harness SampledStore contract: persist one
// finished sampled job. sampleKey must be non-empty.
func (s *Store) SaveSampled(fingerprint, workload string, budget uint64, sampleKey string, rep *sample.Report, f *simfault.Fault) error {
	if sampleKey == "" {
		s.putErrors.Add(1)
		return errors.New("resultstore: sampled entry requires a non-empty Sample key")
	}
	return s.put(s.key(fingerprint, workload, budget, false, sampleKey), nil, rep, f)
}

// put writes one entry atomically: marshal, temp file in the final
// directory, rename. Exactly one of rep, est and f must be set, and a
// result must be of the kind k names: rep for an exact key, est for a
// sampled one (see valid). Every call counts in Puts or PutErrors.
func (s *Store) put(k Key, rep *core.Report, est *sample.Report, f *simfault.Fault) (err error) {
	defer func() {
		if err != nil {
			s.putErrors.Add(1)
		} else {
			s.puts.Add(1)
		}
	}()
	if s.readOnly {
		return ErrReadOnly
	}
	if f != nil && !f.Persistable() {
		return ErrNotPersistable
	}
	e := entry{Key: k, Report: rep, Sampled: est}
	if f != nil {
		e.Fault = recordFault(f)
	}
	if !e.valid() {
		return fmt.Errorf("resultstore: key (sample %q) needs exactly one result of its kind or a fault", k.Sample)
	}
	sum, err := e.sum()
	if err != nil {
		return err
	}
	e.Sum = sum
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	path := s.path(k)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // cleanup of our own temp file
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // cleanup of our own temp file
		return err
	}
	return nil
}
