/**
 * @file
 * Layer wrappers for the traced benchmark binary.
 *
 * The traced binary is linked with `-Wl,--wrap=<symbol>` for every
 * symbol named here (CMakeLists.txt reads the list from this file), so
 * calls into these functions from another translation unit land in
 * `__wrap_<symbol>`, which opens a span and calls `__real_<symbol>`.
 * Calls inside one translation unit (montMul inside bignum.cpp, the
 * Miller-Rabin modExps inside keygen) are not redirected; those layers
 * are reported at their outermost entry from another translation unit.
 *
 * A wrapped symbol that no longer exists leaves `__real_<symbol>`
 * undefined and fails the link, so a renamed function cannot silently
 * zero a layer. The wrappers only read their arguments.
 */

#include <string>
#include <utility>

#include "attestation/interpreters.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "proto/messages.h"
#include "sim/stable_store.h"
#include "tpm/trust_module.h"
#include "trace.h"

using namespace monatt;
using perfbench::trace::Span;
namespace tr = perfbench::trace;

/** Wrap `sym` (a mangled name): `Ret sym params`, forwarded as `args`;
 * the trailing arguments construct the span. Member functions take
 * `this` as their first parameter. */
#define PERFBENCH_WRAP(sym, Ret, params, args, ...)                          \
    extern "C" Ret __real_##sym params;                                      \
    extern "C" Ret __wrap_##sym params                                       \
    {                                                                        \
        Span span(__VA_ARGS__);                                              \
        return __real_##sym args;                                            \
    }

/** Wrap the legacy encode() and decode() of proto message `T`, whose
 * name has `n` characters. */
#define PERFBENCH_CODEC(n, T)                                                \
    PERFBENCH_WRAP(_ZNK6monatt5proto##n##T##6encodeEv, Bytes,                \
                   (const proto::T *self), (self), tr::Codec)                \
    PERFBENCH_WRAP(_ZN6monatt5proto##n##T##6decodeERKSt6vectorIhSaIhEE,      \
                   Result<proto::T>, (const Bytes &body), (body), tr::Codec)

namespace
{

std::uint64_t
totalSize(const std::vector<Bytes> &parts)
{
    std::uint64_t n = 0;
    for (const Bytes &p : parts)
        n += p.size();
    return n;
}

std::uint64_t
totalSize(std::initializer_list<const Bytes *> parts)
{
    std::uint64_t n = 0;
    for (const Bytes *p : parts)
        n += p->size();
    return n;
}

/** Receive layer of a node id, as Cloud names its entities. */
tr::Layer
recvLayerOf(const std::string &id)
{
    if (id.starts_with("cloud-controller"))
        return tr::RecvController;
    if (id.starts_with("attestation-server"))
        return tr::RecvAttestation;
    if (id == "privacy-ca")
        return tr::RecvPca;
    if (id.starts_with("server-"))
        return tr::RecvServer;
    return tr::RecvCustomer;
}

} // namespace

// clang-format off

// crypto: RSA, Montgomery exponentiation, keygen
PERFBENCH_WRAP(_ZN6monatt6crypto7rsaSignERKNS0_13RsaPrivateKeyERKSt6vectorIhSaIhEE, Bytes, (const crypto::RsaPrivateKey &key, const Bytes &msg), (key, msg), tr::RsaSign)
PERFBENCH_WRAP(_ZN6monatt6crypto7rsaSignERKNS0_17RsaPrivateContextERKSt6vectorIhSaIhEE, Bytes, (const crypto::RsaPrivateContext &ctx, const Bytes &msg), (ctx, msg), tr::RsaSign)
PERFBENCH_WRAP(_ZN6monatt6crypto9rsaVerifyERKNS0_12RsaPublicKeyERKSt6vectorIhSaIhEES8_, bool, (const crypto::RsaPublicKey &key, const Bytes &msg, const Bytes &sig), (key, msg, sig), tr::RsaVerify)
PERFBENCH_WRAP(_ZN6monatt6crypto9rsaVerifyERKNS0_16RsaPublicContextERKSt6vectorIhSaIhEES8_, bool, (const crypto::RsaPublicContext &ctx, const Bytes &msg, const Bytes &sig), (ctx, msg, sig), tr::RsaVerify)
PERFBENCH_WRAP(_ZN6monatt6crypto18rsaGenerateKeyPairEmRNS_3RngE, crypto::RsaKeyPair, (std::size_t bits, Rng &rng), (bits, rng), tr::RsaKeygen)
PERFBENCH_WRAP(_ZNK6monatt6crypto17MontgomeryContext6modExpERKNS0_7BigUintES4_, crypto::BigUint, (const crypto::MontgomeryContext *self, const crypto::BigUint &base, const crypto::BigUint &exp), (self, base, exp), tr::ModExp)

// crypto: hashing, MAC, cipher
PERFBENCH_WRAP(_ZN6monatt6crypto10hmacSha256ERKSt6vectorIhSaIhEES5_, Bytes, (const Bytes &key, const Bytes &data), (key, data), tr::Hmac)
PERFBENCH_WRAP(_ZN6monatt6crypto6Sha2566updateEPKhm, void, (crypto::Sha256 *self, const std::uint8_t *data, std::size_t len), (self, data, len), tr::Sha256, len)
PERFBENCH_WRAP(_ZN6monatt6crypto6Sha2566updateERKSt6vectorIhSaIhEE, void, (crypto::Sha256 *self, const Bytes &data), (self, data), tr::Sha256, data.size())
PERFBENCH_WRAP(_ZN6monatt6crypto6Sha2566digestEv, Bytes, (crypto::Sha256 *self), (self), tr::Sha256)
PERFBENCH_WRAP(_ZN6monatt6crypto6Sha2564hashERKSt6vectorIhSaIhEE, Bytes, (const Bytes &data), (data), tr::Sha256, data.size())
PERFBENCH_WRAP(_ZN6monatt6crypto6Sha25610hashConcatESt16initializer_listIPKSt6vectorIhSaIhEEE, Bytes, (std::initializer_list<const Bytes *> parts), (parts), tr::Sha256, totalSize(parts))
PERFBENCH_WRAP(_ZNK6monatt6crypto6Aes12812ctrTransformERKSt6vectorIhSaIhEES6_, Bytes, (const crypto::Aes128 *self, const Bytes &nonce, const Bytes &data), (self, nonce, data), tr::AesCtr, data.size())

// net: secure-channel records and handshakes
PERFBENCH_WRAP(_ZN6monatt3net13SecureChannel4sealERKSt6vectorIhSaIhEE, Bytes, (net::SecureChannel *self, const Bytes &plaintext), (self, plaintext), tr::Channel)
PERFBENCH_WRAP(_ZN6monatt3net13SecureChannel4openERKSt6vectorIhSaIhEE, Result<Bytes>, (net::SecureChannel *self, const Bytes &record), (self, record), tr::Channel)
PERFBENCH_WRAP(_ZN6monatt3net15ClientHandshakeC1ENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES7_RKNS_6crypto10RsaKeyPairERKNS8_12RsaPublicKeyERNS8_8HmacDrbgEPKNS8_17RsaPrivateContextEPKNS8_16RsaPublicContextE, void, (net::ClientHandshake *self, std::string client, std::string server, const crypto::RsaKeyPair &keys, const crypto::RsaPublicKey &serverPub, crypto::HmacDrbg &drbg, const crypto::RsaPrivateContext *ownCtx, const crypto::RsaPublicContext *serverCtx), (self, std::move(client), std::move(server), keys, serverPub, drbg, ownCtx, serverCtx), tr::Handshake)
PERFBENCH_WRAP(_ZN6monatt3net15ClientHandshake6finishERKSt6vectorIhSaIhEE, Result<net::SecureChannel>, (net::ClientHandshake *self, const Bytes &serverHello), (self, serverHello), tr::Handshake)
PERFBENCH_WRAP(_ZN6monatt3net15ServerHandshake6acceptERKSt6vectorIhSaIhEERKNS_6crypto12RsaPublicKeyEPKNS7_16RsaPublicContextE, Result<net::ServerHandshake::Accepted>, (net::ServerHandshake *self, const Bytes &hello, const crypto::RsaPublicKey &clientPub, const crypto::RsaPublicContext *clientCtx), (self, hello, clientPub, clientCtx), tr::Handshake)

// proto: framing and the legacy per-kind codecs
PERFBENCH_WRAP(_ZN6monatt5proto13unpackMessageERKSt6vectorIhSaIhEE, Result<proto::UnpackedMessage>, (const Bytes &framed), (framed), tr::Codec)
PERFBENCH_WRAP(_ZN6monatt5proto11packMessageENS0_11MessageKindERKSt6vectorIhSaIhEE, Bytes, (proto::MessageKind kind, const Bytes &body), (kind, body), tr::Codec)
PERFBENCH_CODEC(13, AttestRequest)
PERFBENCH_CODEC(13, AttestForward)
PERFBENCH_CODEC(14, MeasureRequest)
PERFBENCH_CODEC(15, MeasureResponse)
PERFBENCH_CODEC(17, AttestationReport)
PERFBENCH_CODEC(18, ReportToController)
PERFBENCH_CODEC(16, ReportToCustomer)
PERFBENCH_CODEC(13, AttestFailure)
PERFBENCH_CODEC(11, CertRequest)
PERFBENCH_CODEC(12, CertResponse)
PERFBENCH_CODEC(8, LaunchVm)
PERFBENCH_CODEC(11, LaunchVmAck)
PERFBENCH_CODEC(9, VmCommand)
PERFBENCH_CODEC(12, VmCommandAck)
PERFBENCH_CODEC(13, LaunchRequest)
PERFBENCH_CODEC(14, LaunchResponse)
PERFBENCH_CODEC(16, ReplicateEntries)
PERFBENCH_CODEC(12, ReplicateAck)
PERFBENCH_CODEC(11, VoteRequest)
PERFBENCH_CODEC(9, VoteGrant)
PERFBENCH_CODEC(9, NotLeader)
PERFBENCH_CODEC(10, MigrateOut)
PERFBENCH_CODEC(9, MigrateIn)

// tpm: the AIK-signed quote
PERFBENCH_WRAP(_ZNK6monatt3tpm11TrustModule15signWithSessionEmRKSt6vectorIhSaIhEE, Result<Bytes>, (const tpm::TrustModule *self, tpm::SessionHandle handle, const Bytes &msg), (self, handle, msg), tr::TpmQuote)

// attestation: property interpretation
PERFBENCH_WRAP(_ZNK6monatt11attestation19InterpreterRegistry9interpretENS_5proto16SecurityPropertyERKNS2_14MeasurementSetERKNS0_21InterpretationContextE, proto::PropertyResult, (const attestation::InterpreterRegistry *self, proto::SecurityProperty p, const proto::MeasurementSet &m, const attestation::InterpretationContext &ctx), (self, p, m, ctx), tr::Interpret)

// sim: the write-ahead journal
PERFBENCH_WRAP(_ZN6monatt3sim11StableStore6appendEtSt6vectorIhSaIhEE, std::uint64_t, (sim::StableStore *self, std::uint16_t type, Bytes payload), (self, type, std::move(payload)), tr::Journal, payload.size(), 1)
PERFBENCH_WRAP(_ZN6monatt3sim11StableStore10appendManyEtSt6vectorIS2_IhSaIhEESaIS4_EE, std::uint64_t, (sim::StableStore *self, std::uint16_t type, std::vector<Bytes> payloads), (self, type, std::move(payloads)), tr::Journal, totalSize(payloads), payloads.size())
PERFBENCH_WRAP(_ZN6monatt3sim11StableStore10checkpointESt6vectorIhSaIhEE, void, (sim::StableStore *self, Bytes snapshot), (self, std::move(snapshot)), tr::Journal, snapshot.size())
PERFBENCH_WRAP(_ZN6monatt3sim11StableStore4syncEv, void, (sim::StableStore *self), (self), tr::JournalSync)

// clang-format on

// net: every node's receive handler, wrapped where it is registered.
extern "C" void
__real__ZN6monatt3net7Network12registerNodeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvRKNS0_8EnvelopeEEE(
    net::Network *self, const std::string &id, net::Network::Handler handler);

extern "C" void
__wrap__ZN6monatt3net7Network12registerNodeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvRKNS0_8EnvelopeEEE(
    net::Network *self, const std::string &id, net::Network::Handler handler)
{
    __real__ZN6monatt3net7Network12registerNodeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvRKNS0_8EnvelopeEEE(
        self, id,
        [layer = recvLayerOf(id),
         inner = std::move(handler)](const net::Envelope &envelope) {
            Span span(layer);
            inner(envelope);
        });
}
