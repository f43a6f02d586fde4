// Package storage simulates cloud object storage with credential-gated
// access. It reproduces the access-control shape the paper relies on:
// storage itself only understands object-level permissions (a credential is
// valid for a path prefix, a mode, and a time window), so any finer-grained
// policy must be enforced above storage by the engine — which is exactly the
// problem Lakeguard solves.
//
// Credentials are vended by the catalog (which shares the signing secret with
// the store) and verified here with HMAC-SHA256. Sandboxed user code never
// receives credentials, so it cannot reach storage at all.
package storage

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/telemetry"
)

// AccessMode is the operation class a credential permits.
type AccessMode uint8

// Access modes.
const (
	ModeRead AccessMode = iota
	ModeReadWrite
)

// String returns "READ" or "READ_WRITE".
func (m AccessMode) String() string {
	if m == ModeRead {
		return "READ"
	}
	return "READ_WRITE"
}

// Credential is a temporary, prefix-scoped storage credential.
type Credential struct {
	// Prefix is the path prefix the credential grants access under.
	Prefix string
	// Mode is the permitted operation class.
	Mode AccessMode
	// Expiry is the instant the credential stops working.
	Expiry time.Time
	// Signature is the HMAC tag binding prefix, mode, and expiry.
	Signature string
}

// Errors returned by credential checks.
var (
	ErrNoCredential      = errors.New("storage: operation requires a credential")
	ErrBadSignature      = errors.New("storage: credential signature invalid")
	ErrExpiredCredential = errors.New("storage: credential expired")
	ErrPrefixMismatch    = errors.New("storage: path outside credential prefix")
	ErrReadOnly          = errors.New("storage: write with read-only credential")
	ErrNotFound          = errors.New("storage: object not found")
)

// Store is an in-memory object store, optionally mirrored to a directory on
// disk (NewPersistentStore) so objects survive restarts.
type Store struct {
	mu      sync.RWMutex
	objects map[string][]byte
	secret  []byte
	dir     string // non-empty: write-through persistence root
	clock   func() time.Time
	fault   func(op, path string) error
	// stats: atomic because Get takes only a read lock and parallel scan
	// workers read concurrently.
	getCount atomic.Int64
	putCount atomic.Int64
	// registry counters (nil until SetMetrics; nil-safe no-ops).
	mGetOps    *telemetry.Counter
	mGetBytes  *telemetry.Counter
	mPutOps    *telemetry.Counter
	mPutBytes  *telemetry.Counter
	mHeadOps   *telemetry.Counter
	mListOps   *telemetry.Counter
	mGetSaved  *telemetry.Counter
	mListSaved *telemetry.Counter
}

// NewStore creates a store with a fresh random signing secret.
func NewStore() *Store {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		panic("storage: cannot read entropy: " + err.Error())
	}
	return &Store{objects: make(map[string][]byte), secret: secret, clock: time.Now}
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(clock func() time.Time) { s.clock = clock }

// SetMetrics publishes storage data-plane counters (storage.get_ops,
// storage.get_bytes, storage.put_ops, storage.put_bytes, storage.head_ops,
// storage.list_ops, storage.get_saved) on a registry.
func (s *Store) SetMetrics(m *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mGetOps = m.Counter("storage.get_ops")
	s.mGetBytes = m.Counter("storage.get_bytes")
	s.mPutOps = m.Counter("storage.put_ops")
	s.mPutBytes = m.Counter("storage.put_bytes")
	s.mHeadOps = m.Counter("storage.head_ops")
	s.mListOps = m.Counter("storage.list_ops")
	s.mGetSaved = m.Counter("storage.get_saved")
	s.mListSaved = m.Counter("storage.list_saved")
}

// SetFault installs a failure-injection hook consulted on every data-plane
// operation ("get", "put", "delete", "list"); a non-nil return fails the
// operation after access checks pass. Pass nil to clear. Tests use this to
// model transient cloud-storage failures.
func (s *Store) SetFault(fault func(op, path string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = fault
}

// injectFault runs the fault hook, if any.
func (s *Store) injectFault(op, path string) error {
	s.mu.RLock()
	f := s.fault
	s.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(op, path)
}

// Signer returns a credential-issuing function bound to this store's secret.
// Only the catalog should hold the signer.
func (s *Store) Signer() *Signer {
	return &Signer{secret: s.secret, clock: func() time.Time { return s.clock() }}
}

// Signer issues credentials the paired Store will accept.
type Signer struct {
	secret []byte
	clock  func() time.Time
}

// Issue vends a credential for prefix with the given mode and time to live.
func (sg *Signer) Issue(prefix string, mode AccessMode, ttl time.Duration) Credential {
	expiry := sg.clock().Add(ttl)
	return Credential{
		Prefix:    prefix,
		Mode:      mode,
		Expiry:    expiry,
		Signature: sign(sg.secret, prefix, mode, expiry),
	}
}

func sign(secret []byte, prefix string, mode AccessMode, expiry time.Time) string {
	mac := hmac.New(sha256.New, secret)
	fmt.Fprintf(mac, "%s|%d|%d", prefix, mode, expiry.UnixNano())
	return hex.EncodeToString(mac.Sum(nil))
}

// check validates a credential for a path and operation.
func (s *Store) check(cred *Credential, path string, write bool) error {
	if cred == nil {
		return ErrNoCredential
	}
	want := sign(s.secret, cred.Prefix, cred.Mode, cred.Expiry)
	if !hmac.Equal([]byte(want), []byte(cred.Signature)) {
		return ErrBadSignature
	}
	if s.clock().After(cred.Expiry) {
		return ErrExpiredCredential
	}
	if !strings.HasPrefix(path, cred.Prefix) {
		return fmt.Errorf("%w: %q not under %q", ErrPrefixMismatch, path, cred.Prefix)
	}
	if write && cred.Mode != ModeReadWrite {
		return ErrReadOnly
	}
	return nil
}

// Put writes an object.
func (s *Store) Put(cred *Credential, path string, data []byte) error {
	if err := s.check(cred, path, true); err != nil {
		return err
	}
	if err := s.injectFault("put", path); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persistPut(path, cp); err != nil {
		return err
	}
	s.objects[path] = cp
	s.putCount.Add(1)
	s.mPutOps.Inc()
	s.mPutBytes.Add(int64(len(cp)))
	return nil
}

// ErrAlreadyExists is returned by PutIfAbsent on conflict.
var ErrAlreadyExists = errors.New("storage: object already exists")

// PutIfAbsent writes an object only if the path is empty. It is the
// primitive transactional commit protocols (the Delta log) build on.
func (s *Store) PutIfAbsent(cred *Credential, path string, data []byte) error {
	if err := s.check(cred, path, true); err != nil {
		return err
	}
	if err := s.injectFault("put", path); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[path]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, path)
	}
	if err := s.persistPut(path, cp); err != nil {
		return err
	}
	s.objects[path] = cp
	s.putCount.Add(1)
	s.mPutOps.Inc()
	s.mPutBytes.Add(int64(len(cp)))
	return nil
}

// Get reads an object.
func (s *Store) Get(cred *Credential, path string) ([]byte, error) {
	if err := s.check(cred, path, false); err != nil {
		return nil, err
	}
	if err := s.injectFault("get", path); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.getCount.Add(1)
	s.mGetOps.Inc()
	s.mGetBytes.Add(int64(len(data)))
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Exists reports whether an object is present — the HEAD-request analog: the
// credential check is identical to Get's, no bytes are copied, and the
// operation counts as storage.head_ops rather than a GET. Cache layers use it
// to revalidate a credential on every cache hit, and delta.Open uses it to
// probe for a table without downloading commit 0.
func (s *Store) Exists(cred *Credential, path string) (bool, error) {
	if err := s.check(cred, path, false); err != nil {
		return false, err
	}
	if err := s.injectFault("head", path); err != nil {
		return false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[path]
	s.mHeadOps.Inc()
	return ok, nil
}

// CreditSavedGets records GET round-trips a caller avoided through snapshot
// caching or log-tail listing (storage.get_saved). The saving is attributed
// here so one /metrics page shows ops paid next to ops avoided.
func (s *Store) CreditSavedGets(n int64) {
	if n <= 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mGetSaved.Add(n)
}

// Delete removes an object. Deleting a missing object is not an error
// (object stores are idempotent here).
func (s *Store) Delete(cred *Credential, path string) error {
	if err := s.check(cred, path, true); err != nil {
		return err
	}
	if err := s.injectFault("delete", path); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, path)
	s.persistDelete(path)
	return nil
}

// List returns the paths under prefix, sorted. The credential must cover the
// listed prefix.
func (s *Store) List(cred *Credential, prefix string) ([]string, error) {
	if err := s.check(cred, prefix, false); err != nil {
		return nil, err
	}
	if err := s.injectFault("list", prefix); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for p := range s.objects {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	s.mListOps.Inc()
	return out, nil
}

// ListAfter returns the paths under prefix that sort strictly after marker,
// sorted — the seeded listing a warm Delta log uses to discover only entries
// newer than its cached replay state. Keys at or before the marker are never
// materialized into the response; their count is credited to
// storage.list_saved so one /metrics page shows listing work paid next to
// listing work avoided.
func (s *Store) ListAfter(cred *Credential, prefix, marker string) ([]string, error) {
	if err := s.check(cred, prefix, false); err != nil {
		return nil, err
	}
	if err := s.injectFault("list", prefix); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	var skipped int64
	for p := range s.objects {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		if p <= marker {
			skipped++
			continue
		}
		out = append(out, p)
	}
	sort.Strings(out)
	s.mListOps.Inc()
	s.mListSaved.Add(skipped)
	return out, nil
}

// IsAccessDenied reports whether err is a credential failure (missing,
// forged, expired, out-of-prefix, or read-only) as opposed to a data error
// like ErrNotFound. Cache layers use it to decide when a failed lookup must
// be audited as a denial.
func IsAccessDenied(err error) bool {
	for _, target := range []error{ErrNoCredential, ErrBadSignature, ErrExpiredCredential, ErrPrefixMismatch, ErrReadOnly} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// Size returns an object's byte length without reading it.
func (s *Store) Size(cred *Credential, path string) (int, error) {
	if err := s.check(cred, path, false); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return len(data), nil
}

// Stats reports operation counters (bench instrumentation).
func (s *Store) Stats() (gets, puts int64) {
	return s.getCount.Load(), s.putCount.Load()
}
