package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"smtexplore/internal/service"
)

// ErrLeaseLost reports that this node no longer holds the leadership
// lease: another coordinator claimed a higher term (or rewrote the
// lease) since we last renewed. The only correct response is to demote
// — keep serving and the cluster has two leaders journaling over each
// other. A submission refused by it is a 503 the client retries against
// the new leader (it matches service.ErrUnavailable).
var ErrLeaseLost = service.Unavailable("cluster: leadership lease lost")

// LeaseState is the advertised lease file: who leads, under which term,
// and until when. It lives in the shared HA directory and is written
// with the store's tmp+fsync+rename discipline, so readers only ever
// see a complete advertisement.
type LeaseState struct {
	Term    uint64    `json:"term"`
	Holder  string    `json:"holder"`
	Addr    string    `json:"addr"`
	Renewed time.Time `json:"renewed"`
	TTLMS   int64     `json:"ttl_ms"`
}

// TTL is the advertised validity window.
func (st LeaseState) TTL() time.Duration { return time.Duration(st.TTLMS) * time.Millisecond }

// Expired reports whether the lease is past Renewed+TTL at now.
// Clock-skew caveat: the pair shares one filesystem (and, in every
// deployment we support, one machine), so wall-clock comparison is
// sound; the term fence is what protects correctness when it is not.
func (st LeaseState) Expired(now time.Time) bool {
	return now.After(st.Renewed.Add(st.TTL()))
}

const leaseFile = "lease.json"

// Lease is one coordinator's handle on the shared leadership lease.
// Acquisition races are settled by O_EXCL term-claim files: term N
// belongs to whichever process creates term-N.claim, so two cold
// coordinators (or a standby racing a zombie) can never both win the
// same term. Holding a lease means: we created the claim file for the
// current term and the advertisement file still names us.
type Lease struct {
	dir    string
	holder string
	addr   string
	ttl    time.Duration
}

// NewLease prepares a lease handle over the shared directory (created
// if missing). holder is this coordinator's identity; addr is the
// client-facing address advertised to standbys and redirected clients.
func NewLease(dir, holder, addr string, ttl time.Duration) (*Lease, error) {
	if holder == "" {
		return nil, errors.New("cluster: lease holder name must not be empty")
	}
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: lease dir: %w", err)
	}
	return &Lease{dir: dir, holder: holder, addr: addr, ttl: ttl}, nil
}

// TTL is the configured validity window for leases this handle writes.
func (l *Lease) TTL() time.Duration { return l.ttl }

// RenewEvery is the renewal cadence: a quarter of the TTL, so a leader
// gets three more chances before its lease lapses.
func (l *Lease) RenewEvery() time.Duration { return l.ttl / 4 }

// ReadLease reads the current advertisement. ok is false when no lease
// has ever been written (cold cluster) or the file is unreadable —
// either way the caller's move is the same: try to acquire.
func ReadLease(dir string) (st LeaseState, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, leaseFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return LeaseState{}, false, nil
		}
		return LeaseState{}, false, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		// Unparseable advertisements cannot happen via the atomic write
		// path; treat garbage as absence rather than wedging the pair.
		return LeaseState{}, false, nil
	}
	return st, true, nil
}

// TryAcquire attempts to take leadership: it succeeds only when the
// current lease is absent, expired, or already ours, AND this process
// wins the O_EXCL claim on the next term. On success the advertisement
// names us and Term reports the won term. A false return with nil
// error means another node holds (or just won) the lease.
func (l *Lease) TryAcquire() (uint64, bool, error) {
	st, ok, err := ReadLease(l.dir)
	if err != nil {
		return 0, false, err
	}
	now := time.Now()
	if ok && !st.Expired(now) && st.Holder != l.holder {
		return 0, false, nil
	}
	next := st.Term + 1
	// Claim terms by O_EXCL creation. On EEXIST someone else claimed this
	// term: if they advertised (or the claim is fresh) we lost the race;
	// if the claimant died between claim and advertisement — a stale
	// claim file and no newer lease — skip past the orphaned term.
	for try := 0; try < 64; try++ {
		claim := filepath.Join(l.dir, fmt.Sprintf("term-%08d.claim", next))
		f, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%s %s\n", l.holder, l.addr)
			f.Sync()
			f.Close()
			if err := l.writeState(next, now); err != nil {
				return 0, false, err
			}
			return next, true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return 0, false, fmt.Errorf("cluster: term claim: %w", err)
		}
		info, serr := os.Stat(claim)
		if serr == nil && time.Since(info.ModTime()) < l.ttl {
			return 0, false, nil // live claimant; it will advertise shortly
		}
		if cur, ok, _ := ReadLease(l.dir); ok && cur.Term >= next && !cur.Expired(time.Now()) {
			return 0, false, nil // the claimant did advertise; we lost
		}
		next++ // orphaned claim (claimant died pre-advertisement): step over it
	}
	return 0, false, errors.New("cluster: term claim space exhausted")
}

// Renew re-advertises the lease under term. It re-reads the file first
// and returns ErrLeaseLost when a higher term (or different holder) has
// appeared — the stale-leader-wakes-up case: a leader whose clock
// stopped (GC pause, SIGSTOP, VM freeze) past its TTL finds the lease
// stolen and must demote instead of overwriting the thief.
func (l *Lease) Renew(term uint64) error {
	if err := l.Check(term); err != nil {
		return err
	}
	return l.writeState(term, time.Now())
}

// Check verifies, against the file, that we still hold the lease under
// term. This is the fence the routing journal applies on every write:
// cheap enough to run per-append, strong enough that a stale leader
// cannot extend its journal after theft.
func (l *Lease) Check(term uint64) error {
	st, ok, err := ReadLease(l.dir)
	if err != nil {
		return err
	}
	if !ok || st.Term != term || st.Holder != l.holder {
		return fmt.Errorf("%w: term %d holder %q superseded by term %d holder %q",
			ErrLeaseLost, term, l.holder, st.Term, st.Holder)
	}
	return nil
}

// Release expires the lease in place (Renewed backdated past the TTL,
// term and holder kept) so a standby can promote immediately instead of
// waiting out the TTL — the graceful-shutdown handover. Releasing a
// lease we no longer hold is a no-op.
func (l *Lease) Release(term uint64) error {
	if err := l.Check(term); err != nil {
		if errors.Is(err, ErrLeaseLost) {
			return nil
		}
		return err
	}
	return l.writeState(term, time.Now().Add(-2*l.ttl))
}

func (l *Lease) writeState(term uint64, renewed time.Time) error {
	st := LeaseState{Term: term, Holder: l.holder, Addr: l.addr, Renewed: renewed, TTLMS: l.ttl.Milliseconds()}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(l.dir, leaseFile, append(data, '\n'))
}

// atomicWrite lands data at dir/name via the store's tmp+fsync+rename
// discipline: readers see the old content or the new, never a torn mix.
func atomicWrite(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
