/**
 * @file
 * The privacy Certificate Authority (§3.2.3, §3.4.2).
 *
 * "The public attestation key AVKs is signed by the Cloud Server's
 * SKs and sent to the pCA for certification. The pCA verifies the
 * signature via VKs and issues the certificate for AVKs for that
 * server. This certificate enables the Attestation Server to
 * authenticate the Cloud Server 'anonymously' for this attestation."
 *
 * The certificate subject is the session label, never the server id:
 * the pCA knows which machine asked (it verified VKs), but nothing
 * downstream of the certificate can link the attestation to the
 * machine — the property that stops an attacker from using the
 * attestation service to locate a victim VM for co-residence [31].
 */

#ifndef MONATT_ATTESTATION_PRIVACY_CA_H
#define MONATT_ATTESTATION_PRIVACY_CA_H

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fifo_cache.h"
#include "net/secure_endpoint.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "sim/durable_entity.h"

namespace monatt::attestation
{

/**
 * The pCA entity. Durable issuance state (sim::DurableEntity): issued
 * certificates are journaled so a restarted pCA answers
 * retransmissions idempotently and never reuses a serial number.
 */
class PrivacyCa : public sim::DurableEntity
{
  public:
    /**
     * `presetKeys` must equal deriveKeys(id, seed) when supplied;
     * Cloud construction uses it to parallelize entity keygen.
     */
    PrivacyCa(sim::EventQueue &eq, net::Network &network,
              net::KeyDirectory &directory, std::string id,
              proto::TimingModel timing, std::uint64_t seed,
              sim::DurableConfig durability = {},
              std::optional<crypto::RsaKeyPair> presetKeys = {});

    /** Deterministic identity-key derivation (see presetKeys). */
    static crypto::RsaKeyPair deriveKeys(const std::string &id,
                                         std::uint64_t seed);

    /** Node id. */
    const std::string &id() const { return self; }

    /** Public signing key (verifiers fetch it from the directory). */
    const crypto::RsaPublicKey &publicKey() const { return keys.pub; }

    /** Certificates issued so far. */
    std::uint64_t issued() const { return serial; }

    /** Requests rejected (bad identity signature etc). */
    std::uint64_t rejected() const { return rejections; }

    /**
     * Simulate a crash: detach, drop volatile state and the un-fsynced
     * journal tail. The signing key survives (it is provisioned
     * material, like a key file on disk).
     */
    void crash();

    /** Rejoin the network and replay the journal. */
    void restart();

    /** True while attached to the network. */
    bool isUp() const { return endpoint.attached(); }

    /** Dedup-cache introspection (bounds/eviction tests). */
    std::size_t issuedCacheSize() const { return issuedCache.size(); }

    /** Cached session labels in FIFO eviction order. */
    std::vector<std::string> issuedCacheLabels() const
    {
        std::vector<std::string> labels;
        labels.reserve(issuedCache.size());
        issuedCache.forEach([&labels](const CertKey &key, const Bytes &) {
            labels.push_back(key.second);
        });
        return labels;
    }

    /** Wire codec this node emits (DESIGN.md §17); received frames
     * always decode by their own self-described format. */
    const proto::WireContext &wireContext() const { return wire_; }
    void setWireContext(const proto::WireContext &ctx) { wire_ = ctx; }

  private:
    void handleMessage(const net::NodeId &from, const Bytes &plaintext);
    /** Check one request and answer it (certificate or refusal). */
    void issue(const proto::CertRequest &req, const net::NodeId &from);

    /** Pack an outgoing message in this node's configured format. */
    template <typename M>
    Bytes pack(proto::MessageKind kind, const M &msg) const
    {
        return proto::packFor(wire_, kind, msg);
    }

    proto::WireContext wire_;
    /** Format of the frame currently being dispatched. */
    proto::WireFormat rxFormat_ = proto::WireFormat::Legacy;

    std::string self;
    crypto::RsaKeyPair keys;
    /** Compiled signing key for certificate issuance. */
    crypto::RsaPrivateContext signCtx;
    const net::KeyDirectory &dir;
    proto::TimingModel timing;
    net::SecureEndpoint endpoint;
    std::uint64_t serial = 0;
    std::uint64_t rejections = 0;

    /**
     * Idempotent issuance: a retransmitted CertRequest is answered
     * with the already-issued response instead of minting a fresh
     * serial number. Keyed by (requester, session label); bounded
     * FIFO. `inFlight` suppresses duplicates that arrive while the
     * first copy is still inside the processing delay.
     */
    using CertKey = std::pair<net::NodeId, std::string>;
    FifoCache<CertKey, Bytes> issuedCache;
    std::set<CertKey> inFlight;

    // --- Durability (write-ahead journal) ------------------------------

    /** Journal record types (StableStore payload tags). */
    enum class JournalType : std::uint16_t
    {
        CertIssued = 1, //!< counters + one issued entry.
    };

    /** Encoders and appliers, one per layout; the CertIssued record
     * and the snapshot are built from the same two. */
    void putCounters(ByteWriter &w) const;
    bool applyCounters(ByteReader &r);
    static void putIssued(ByteWriter &w, const CertKey &key,
                          const Bytes &encoded);
    bool applyIssued(ByteReader &r);

    Bytes snapshotState() const override;
    void applySnapshot(const Bytes &snapshot) override;
    void applyJournalRecord(const sim::JournalRecord &rec) override;
};

} // namespace monatt::attestation

#endif // MONATT_ATTESTATION_PRIVACY_CA_H
