#include "attestation/privacy_ca.h"

#include "common/codec.h"
#include "common/logging.h"
#include "tpm/certificate.h"

namespace monatt::attestation
{

using proto::MessageKind;

namespace
{

Bytes
endpointSeed(const std::string &id, std::uint64_t seed)
{
    Bytes material = toBytes("pca-endpoint:" + id);
    for (int i = 0; i < 8; ++i)
        material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    return material;
}

} // namespace

crypto::RsaKeyPair
PrivacyCa::deriveKeys(const std::string &id, std::uint64_t seed)
{
    Bytes material = toBytes("pca-identity:" + id);
    for (int i = 0; i < 8; ++i)
        material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    crypto::HmacDrbg drbg(material);
    Rng rng = drbg.forkRng();
    return crypto::rsaGenerateKeyPair(512, rng);
}

PrivacyCa::PrivacyCa(sim::EventQueue &eq, net::Network &network,
                     net::KeyDirectory &directory, std::string id,
                     proto::TimingModel timingModel, std::uint64_t seed,
                     sim::DurableConfig durability,
                     std::optional<crypto::RsaKeyPair> presetKeys)
    : DurableEntity(eq, id, durability), self(std::move(id)),
      keys(presetKeys ? *std::move(presetKeys) : deriveKeys(self, seed)),
      signCtx(keys.priv), dir(directory), timing(timingModel),
      endpoint(network, self, keys, directory, endpointSeed(self, seed)),
      issuedCache(durability.dedupCacheCapacity)
{
    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        handleMessage(from, msg);
    });
}

void
PrivacyCa::handleMessage(const net::NodeId &from, const Bytes &plaintext)
{
    auto unpacked = proto::unpackMessage(plaintext);
    if (!unpacked || unpacked.value().kind != MessageKind::CertRequest)
        return;
    rxFormat_ = unpacked.value().format;
    auto reqR = proto::decodeAs<proto::CertRequest>(rxFormat_,
                                                    unpacked.value().body);
    if (!reqR)
        return;

    // Idempotent issuance: answer a retransmission with the cached
    // response; swallow duplicates of a request still being processed.
    const CertKey key{from, reqR.value().sessionLabel};
    if (const Bytes *cached = issuedCache.find(key)) {
        endpoint.sendSecure(from,
                            proto::packMessage(MessageKind::CertResponse,
                                               Bytes(*cached)));
        return;
    }
    if (!inFlight.insert(key).second)
        return;

    // Model the per-request processing delay, then certify.
    events.scheduleAfter(timing.pcaProcessing, fence,
                         [this, req = reqR.take(), from] {
        issue(req, from);
    }, "pca.issue");
}

void
PrivacyCa::issue(const proto::CertRequest &req, const net::NodeId &from)
{
    // Only the server itself may ask, and its identity key must have
    // signed [AVKs].
    bool identityOk = false;
    if (from == req.serverId) {
        if (auto serverKey = dir.lookup(req.serverId))
            identityOk = crypto::rsaVerify(serverKey.value(), req.avk,
                                           req.avkSignature);
    }

    proto::CertResponse resp;
    resp.sessionLabel = req.sessionLabel;
    if (!identityOk) {
        ++rejections;
        resp.ok = false;
        resp.error = "identity verification failed";
        MONATT_LOG(Warn, "pca")
            << "refused certification for " << req.serverId;
    } else if (auto avk = crypto::RsaPublicKey::decode(req.avk); !avk) {
        ++rejections;
        resp.ok = false;
        resp.error = "malformed attestation key";
    } else {
        const tpm::Certificate cert = tpm::issueCertificate(
            req.sessionLabel, avk.value(), self, ++serial, signCtx);
        resp.ok = true;
        resp.certificate = cert.encode();
    }

    // The dedup cache and journal hold the canonical legacy body
    // (cache hits are resent legacy-framed); only the fresh send uses
    // this node's configured wire format.
    const CertKey key{from, req.sessionLabel};
    inFlight.erase(key);
    Bytes encoded = resp.encode();
    if (!issuedCache.contains(key)) {
        // The counters ride along so replay restores them without a
        // separate record type (rejected responses mint no serial but
        // still carry the current counter).
        ByteWriter w;
        putCounters(w);
        putIssued(w, key, encoded);
        journal(static_cast<std::uint16_t>(JournalType::CertIssued),
                w.take());
    }
    issuedCache.insert(key, std::move(encoded));
    endpoint.sendSecure(from, pack(MessageKind::CertResponse, resp));
    commitJournal();
}

// --- Durability: WAL + recovery ---------------------------------------

void
PrivacyCa::putCounters(ByteWriter &w) const
{
    w.putU64(serial);
    w.putU64(rejections);
}

bool
PrivacyCa::applyCounters(ByteReader &r)
{
    auto serialNo = r.getU64();
    auto rejectionCount = r.getU64();
    if (!serialNo || !rejectionCount)
        return false;
    serial = serialNo.value();
    rejections = rejectionCount.value();
    return true;
}

void
PrivacyCa::putIssued(ByteWriter &w, const CertKey &key, const Bytes &encoded)
{
    w.putString(key.first);
    w.putString(key.second);
    w.putBytes(encoded);
}

bool
PrivacyCa::applyIssued(ByteReader &r)
{
    auto from = r.getString();
    auto label = r.getString();
    auto encoded = r.getBytes();
    if (!from || !label || !encoded)
        return false;
    issuedCache.insert(CertKey{from.take(), label.take()}, encoded.take());
    return true;
}

Bytes
PrivacyCa::snapshotState() const
{
    ByteWriter w;
    putCounters(w);
    w.putU32(static_cast<std::uint32_t>(issuedCache.size()));
    issuedCache.forEach([&w](const CertKey &key, const Bytes &encoded) {
        putIssued(w, key, encoded);
    });
    return w.take();
}

void
PrivacyCa::applySnapshot(const Bytes &snapshot)
{
    ByteReader r(snapshot);
    if (applyCounters(r))
        applyEach(r, [this](ByteReader &e) { return applyIssued(e); });
}

void
PrivacyCa::applyJournalRecord(const sim::JournalRecord &rec)
{
    if (static_cast<JournalType>(rec.type) != JournalType::CertIssued)
        return;
    ByteReader r(rec.payload);
    if (applyCounters(r))
        applyIssued(r);
}

void
PrivacyCa::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": crash";
    fence.bump();
    endpoint.detach();
    inFlight.clear();
    issuedCache.clear();
    serial = 0;
    rejections = 0;
    // The un-fsynced journal tail is the page cache: lost.
    store.crash();
}

void
PrivacyCa::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": restart";
    endpoint.attach();
    if (durable())
        recover();
}

} // namespace monatt::attestation
