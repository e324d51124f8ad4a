/**
 * @file
 * Attestation-key certificate verification cache.
 *
 * §3.4 requires the Attestation Server to check the pCA certificate
 * carried by every MeasureResponse before trusting the session key
 * AVKs inside it. With AVK-session reuse on the cloud servers (one
 * attestation key serving several periodic rounds), the same
 * certificate bytes arrive many times; re-running the RSA chain check
 * each time is pure waste. This cache memoizes *successful*
 * verifications, keyed by the SHA-256 digest of the exact certificate
 * bytes: a hit returns the same AVK the cold path extracted, so the
 * verification decision is byte-identical to an uncached check.
 * Failures are never cached — a tampered certificate has a different
 * digest, misses, and takes the cold path to its Unknown verdict, so
 * an attacker cannot poison the cache or dodge re-verification.
 */

#ifndef MONATT_ATTESTATION_CERT_CACHE_H
#define MONATT_ATTESTATION_CERT_CACHE_H

#include <cstdint>

#include "common/bytes.h"
#include "common/fifo_cache.h"
#include "crypto/rsa.h"

namespace monatt::attestation
{

/** Observable cache counters. */
struct CertCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
};

/** Bounded FIFO cache: certificate digest -> verified AVK. */
class CertVerificationCache
{
  public:
    explicit CertVerificationCache(std::size_t capacity = 256);

    /**
     * Verified AVK for a certificate digest; nullptr on miss. Counts
     * a hit or a miss.
     */
    const crypto::RsaPublicKey *lookup(const Bytes &digest);

    /** Record a successful verification (evicts oldest when full);
     * a cached digest has its AVK replaced in place. */
    void insert(const Bytes &digest, crypto::RsaPublicKey avk);

    std::size_t size() const { return cache.size(); }
    std::size_t capacity() const { return cache.capacity(); }
    const CertCacheStats &stats() const { return counters; }

    /** Digest -> AVK entries in FIFO insertion order (journal
     * checkpointing). */
    const FifoCache<Bytes, crypto::RsaPublicKey> &entries() const
    {
        return cache;
    }

    /** Drop everything (pCA key rotation). */
    void clear() { cache.clear(); }

  private:
    FifoCache<Bytes, crypto::RsaPublicKey> cache;
    CertCacheStats counters;
};

} // namespace monatt::attestation

#endif // MONATT_ATTESTATION_CERT_CACHE_H
