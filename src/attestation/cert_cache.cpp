#include "attestation/cert_cache.h"

#include <algorithm>

namespace monatt::attestation
{

CertVerificationCache::CertVerificationCache(std::size_t capacity)
    : cache(std::max<std::size_t>(capacity, 1))
{
}

const crypto::RsaPublicKey *
CertVerificationCache::lookup(const Bytes &digest)
{
    const crypto::RsaPublicKey *avk = cache.find(digest);
    ++(avk ? counters.hits : counters.misses);
    return avk;
}

void
CertVerificationCache::insert(const Bytes &digest,
                              crypto::RsaPublicKey avk)
{
    if (crypto::RsaPublicKey *cached = cache.find(digest)) {
        *cached = std::move(avk);
        return;
    }
    const bool full = cache.size() >= cache.capacity();
    cache.insert(digest, std::move(avk));
    ++counters.insertions;
    counters.evictions += full ? 1 : 0;
}

} // namespace monatt::attestation
