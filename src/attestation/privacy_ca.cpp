#include "attestation/privacy_ca.h"

#include "common/codec.h"
#include "common/logging.h"
#include "sim/worker_pool.h"
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
                     SimTime batchWindow,
                     std::optional<crypto::RsaKeyPair> presetKeys)
    : events(eq), self(std::move(id)),
      keys(presetKeys ? *std::move(presetKeys) : deriveKeys(self, seed)),
      signCtx(keys.priv), dir(directory), timing(timingModel),
      window(batchWindow),
      endpoint(network, self, keys, directory, endpointSeed(self, seed)),
      store(self)
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
    const auto cached = issuedCache.find(key);
    if (cached != issuedCache.end()) {
        endpoint.sendSecure(from,
                            proto::packMessage(MessageKind::CertResponse,
                                               Bytes(cached->second)));
        return;
    }
    if (!inFlight.insert(key).second)
        return;

    // Model the per-request processing delay, then batch every request
    // that matured within the window for the compute plane.
    events.scheduleAfter(timing.pcaProcessing,
                         [this, req = reqR.take(), from,
                          eraNow = era]() mutable {
        if (eraNow != era)
            return;
        pending.push_back(Pending{std::move(req), from});
        if (!flushScheduled) {
            flushScheduled = true;
            events.scheduleAfter(window, [this, eraNow] {
                if (eraNow != era)
                    return;
                flushBatch();
            }, "pca.flush");
        }
    }, "pca.issue");
}

void
PrivacyCa::flushBatch()
{
    flushScheduled = false;
    std::vector<Pending> batch;
    batch.swap(pending);

    struct Item
    {
        Pending p;
        std::optional<crypto::RsaPublicKey> serverKey;
        bool identityOk = false;
        std::optional<crypto::RsaPublicKey> avk;
        std::uint64_t serialNo = 0;
        proto::CertResponse resp;
    };
    std::vector<Item> items;
    items.reserve(batch.size());

    // Serial pre-pass, in arrival order: directory lookups and
    // requester checks (shared state reads stay on the driver thread).
    for (Pending &p : batch) {
        Item item;
        if (p.from == p.req.serverId) {
            if (auto key = dir.lookup(p.req.serverId))
                item.serverKey = key.take();
        }
        item.p = std::move(p);
        item.resp.sessionLabel = item.p.req.sessionLabel;
        items.push_back(std::move(item));
    }

    // Pure compute: the identity signature over [AVKs]_SKs and the
    // AVK decode, one task per request.
    sim::WorkerPool::global().parallelFor(
        items.size(), [&](std::size_t i) {
            Item &item = items[i];
            if (!item.serverKey)
                return;
            if (!crypto::rsaVerify(*item.serverKey, item.p.req.avk,
                                   item.p.req.avkSignature)) {
                return;
            }
            item.identityOk = true;
            if (auto avk = crypto::RsaPublicKey::decode(item.p.req.avk))
                item.avk = avk.take();
        });

    // Serial mid-pass, in arrival order: rejections and serial-number
    // assignment — the issue order any serial pCA would produce.
    for (Item &item : items) {
        if (!item.identityOk) {
            ++rejections;
            item.resp.ok = false;
            item.resp.error = "identity verification failed";
            MONATT_LOG(Warn, "pca")
                << "refused certification for " << item.p.req.serverId;
        } else if (!item.avk) {
            ++rejections;
            item.resp.ok = false;
            item.resp.error = "malformed attestation key";
        } else {
            item.serialNo = ++serial;
        }
    }

    // Pure compute: certificate signatures for the accepted requests.
    sim::WorkerPool::global().parallelFor(
        items.size(), [&](std::size_t i) {
            Item &item = items[i];
            if (item.serialNo == 0)
                return;
            const tpm::Certificate cert = tpm::issueCertificate(
                item.p.req.sessionLabel, *item.avk, self, item.serialNo,
                signCtx);
            item.resp.ok = true;
            item.resp.certificate = cert.encode();
        });

    // Serial responses in arrival order. The whole batch journals as
    // one appendMany (same record sequence and LSNs as per-item
    // appends, one bulk buffer splice) before the group-commit sync.
    // The dedup cache and journal hold the canonical legacy body
    // (cache hits are resent legacy-framed); only the fresh send uses
    // this node's configured wire format.
    std::vector<Bytes> issuedJournal;
    for (Item &item : items) {
        Bytes encoded = item.resp.encode();
        const CertKey key{item.p.from, item.p.req.sessionLabel};
        inFlight.erase(key);
        const auto [cacheIt, inserted] =
            issuedCache.emplace(key, std::move(encoded));
        if (inserted) {
            if (durable && !replaying)
                issuedJournal.push_back(encodeIssued(key, cacheIt->second));
            issuedOrder.push_back(key);
            while (issuedOrder.size() > issuedCacheCapacity) {
                issuedCache.erase(issuedOrder.front());
                issuedOrder.pop_front();
            }
        }
        endpoint.sendSecure(item.p.from,
                            pack(MessageKind::CertResponse, item.resp));
    }
    store.appendMany(static_cast<std::uint16_t>(JournalType::CertIssued),
                     std::move(issuedJournal));
    commitJournal();
}

// --- Durability: WAL + recovery ---------------------------------------

Bytes
PrivacyCa::encodeIssued(const CertKey &key, const Bytes &encoded) const
{
    // The serial counter rides along so replay restores it without a
    // separate record type (rejected responses mint no serial but
    // still carry the current counter). Serials for a batch are all
    // assigned before any response encodes, so deferring the batch's
    // journal records to one appendMany writes identical bytes.
    ByteWriter w;
    w.putU64(serial);
    w.putU64(rejections);
    w.putString(key.first);
    w.putString(key.second);
    w.putBytes(encoded);
    return w.take();
}

void
PrivacyCa::commitJournal()
{
    if (!durable || replaying)
        return;
    if (store.pendingRecords() > 0)
        store.sync();
    if (ckptPolicy.shouldCheckpoint(store, events.now())) {
        store.checkpoint(snapshotState());
        ckptPolicy.noteCheckpoint();
    }
}

Bytes
PrivacyCa::snapshotState() const
{
    ByteWriter w;
    w.putU64(serial);
    w.putU64(rejections);
    w.putU32(static_cast<std::uint32_t>(issuedOrder.size()));
    for (const CertKey &key : issuedOrder) {
        w.putString(key.first);
        w.putString(key.second);
        w.putBytes(issuedCache.at(key));
    }
    return w.take();
}

void
PrivacyCa::applySnapshot(const Bytes &snapshot)
{
    ByteReader r(snapshot);
    auto serialNo = r.getU64();
    auto rejectionCount = r.getU64();
    auto count = r.getU32();
    if (!serialNo || !rejectionCount || !count)
        return;
    serial = serialNo.value();
    rejections = rejectionCount.value();
    for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto from = r.getString();
        auto label = r.getString();
        auto encoded = r.getBytes();
        if (!from || !label || !encoded)
            return;
        const CertKey key{from.value(), label.value()};
        if (issuedCache.emplace(key, encoded.take()).second) {
            issuedOrder.push_back(key);
            while (issuedOrder.size() > issuedCacheCapacity) {
                issuedCache.erase(issuedOrder.front());
                issuedOrder.pop_front();
            }
        }
    }
}

void
PrivacyCa::applyJournalRecord(const sim::JournalRecord &rec)
{
    if (static_cast<JournalType>(rec.type) != JournalType::CertIssued)
        return;
    ByteReader r(rec.payload);
    auto serialNo = r.getU64();
    auto rejectionCount = r.getU64();
    auto from = r.getString();
    auto label = r.getString();
    auto encoded = r.getBytes();
    if (!serialNo || !rejectionCount || !from || !label || !encoded)
        return;
    serial = serialNo.value();
    rejections = rejectionCount.value();
    const CertKey key{from.take(), label.take()};
    if (issuedCache.emplace(key, encoded.take()).second) {
        issuedOrder.push_back(key);
        while (issuedOrder.size() > issuedCacheCapacity) {
            issuedCache.erase(issuedOrder.front());
            issuedOrder.pop_front();
        }
    }
}

void
PrivacyCa::recover()
{
    replaying = true;
    auto image = store.replay();
    if (!image.clean) {
        // Healed replay: issuances in the dropped suffix are gone
        // from the dedup cache, so their retransmissions mint fresh
        // certificates instead of being answered from cache.
        ++corruptRecoveries_;
        MONATT_LOG(Info, "pca")
            << self << ": replay quarantined "
            << image.quarantinedRecords << " and truncated "
            << image.truncatedRecords << " corrupt journal records"
            << (image.snapshotQuarantined ? " (snapshot seal failed)"
                                          : "");
    }
    if (image.hasSnapshot)
        applySnapshot(image.snapshot);
    for (const sim::JournalRecord &rec : image.records)
        applyJournalRecord(rec);
    replaying = false;
    // Recovery doubles as a checkpoint.
    store.checkpoint(snapshotState());
    ckptPolicy.noteCheckpoint();
    MONATT_LOG(Info, "pca")
        << self << ": recovered serial " << serial << ", "
        << issuedCache.size() << " cached responses";
}

void
PrivacyCa::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": crash";
    ++era;
    endpoint.detach();
    pending.clear();
    flushScheduled = false;
    inFlight.clear();
    issuedCache.clear();
    issuedOrder.clear();
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
    if (durable)
        recover();
}

} // namespace monatt::attestation
