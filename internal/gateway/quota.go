package gateway

// Per-tenant admission: a classic token bucket per tenant, refilled at
// QuotaRate tokens/sec up to QuotaBurst. The gateway applies it in
// front of the whole fleet so one tenant's load-test cannot starve the
// replicas for everyone else. Zero rate disables quotas entirely.
//
// The tenant is client input, so the keys it creates are bounded: a
// value must pass validTenant, and past maxTenants distinct tenants
// every new one folds into overflowTenant, which shares one bucket and
// one row of the per-tenant expvar maps.

import (
	"sync"
	"time"
)

const (
	// maxTenantLen caps an X-Tsvgate-Tenant value in bytes.
	maxTenantLen = 64
	// maxTenants is how many distinct tenants the process keys quota
	// buckets and per-tenant metrics by.
	maxTenants = 1024
	// overflowTenant is the key of every tenant past maxTenants.
	overflowTenant = "_overflow"
)

// tracked is the process-wide tenant set; process-wide because the
// per-tenant expvar maps it bounds are.
var tracked = tenantSet{seen: make(map[string]struct{})}

type tenantSet struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// key returns the quota and metrics key for a valid tenant: the tenant
// itself while fewer than maxTenants are tracked or once it is,
// overflowTenant otherwise.
func (s *tenantSet) key(tenant string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[tenant]; ok {
		return tenant
	}
	if len(s.seen) >= maxTenants {
		return overflowTenant
	}
	s.seen[tenant] = struct{}{}
	return tenant
}

type quotaTable struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test clock
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate, burst float64) *quotaTable {
	return &quotaTable{rate: rate, burst: burst, buckets: make(map[string]*bucket), now: time.Now}
}

// allow consumes one token from the tenant's bucket, reporting whether
// the request may proceed.
func (q *quotaTable) allow(tenant string) bool {
	if q.rate <= 0 {
		return true
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * q.rate
	if b.tokens > q.burst {
		b.tokens = q.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
