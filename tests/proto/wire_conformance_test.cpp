/**
 * @file
 * Wire-codec conformance: frozen golden byte vectors for the tagged
 * encoding of every message type (field renumbering fails loudly
 * here), schema-registry invariants, frame self-description, legacy ↔
 * tagged equivalence for fully populated messages, and the v1 ↔ v2
 * mixed-version contract (unknown-field skip + missing-field default)
 * in both directions.
 */

#include <gtest/gtest.h>

#include <set>

#include "proto/messages.h"

namespace monatt::proto
{
namespace
{

const WireContext kV1{WireFormat::Tagged, kWireV1};
const WireContext kV2{WireFormat::Tagged, kWireV2};
const WireContext kV3{WireFormat::Tagged, kWireV3};

// --- Fixed sample messages (every field away from its default) -------

AttestRequest
sampleAttestRequest()
{
    AttestRequest m;
    m.requestId = 7;
    m.vid = "vm-42";
    m.properties = {SecurityProperty::RuntimeIntegrity,
                    SecurityProperty::CpuAvailability};
    m.nonce1 = {0x01, 0x02, 0x03, 0x04};
    m.mode = AttestMode::RuntimePeriodic;
    m.period = seconds(10);
    m.senderBuild = 3;
    return m;
}

AttestForward
sampleAttestForward()
{
    AttestForward m;
    m.requestId = 9;
    m.vid = "vm-1";
    m.serverId = "server-2";
    m.properties = {SecurityProperty::StartupIntegrity};
    m.nonce2 = {0x09, 0x09};
    m.mode = AttestMode::StartupOneTime;
    m.period = seconds(1);
    m.senderBuild = 3;
    return m;
}

MeasureRequest
sampleMeasureRequest()
{
    MeasureRequest m;
    m.requestId = 11;
    m.vid = "vm-m";
    m.rm = {MeasurementType::PlatformPcrs, MeasurementType::CpuMeasure};
    m.nonce3 = {0x0a, 0x0b};
    m.window = seconds(2);
    m.senderBuild = 3;
    return m;
}

MeasureResponse
sampleMeasureResponse()
{
    MeasureResponse m;
    m.requestId = 12;
    m.vid = "vm-m";
    m.rm = {MeasurementType::VmImageDigest};
    Measurement meas;
    meas.type = MeasurementType::VmImageDigest;
    meas.digest = {0xde, 0xad};
    m.m.items.push_back(meas);
    m.nonce3 = {0x0c};
    m.quote3 = {0x0d};
    m.signature = {0x0e, 0x0f};
    m.certificate = {0x10};
    m.senderBuild = 3;
    return m;
}

AttestationReport
sampleReport()
{
    AttestationReport rep;
    rep.vid = "vm-r";
    PropertyResult pr;
    pr.property = SecurityProperty::RuntimeIntegrity;
    pr.status = HealthStatus::Healthy;
    pr.detail = "ok";
    rep.results.push_back(pr);
    rep.issuedAt = seconds(5);
    return rep;
}

ReportToController
sampleReportToController()
{
    ReportToController m;
    m.requestId = 13;
    m.vid = "vm-r";
    m.serverId = "server-1";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce2 = {0x11};
    m.quote2 = {0x12};
    m.signature = {0x13, 0x14};
    m.senderBuild = 3;
    return m;
}

ReportToCustomer
sampleReportToCustomer()
{
    ReportToCustomer m;
    m.requestId = 14;
    m.vid = "vm-r";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce1 = {0x15};
    m.quote1 = {0x16};
    m.signature = {0x17};
    m.finalPeriodic = true;
    m.senderBuild = 3;
    return m;
}

AttestFailure
sampleAttestFailure()
{
    AttestFailure m;
    m.requestId = 15;
    m.vid = "vm-f";
    m.outcome = FailureOutcome::Unreachable;
    m.reason = "no attestor";
    return m;
}

CertRequest
sampleCertRequest()
{
    CertRequest m;
    m.serverId = "server-3";
    m.sessionLabel = "sess-9";
    m.avk = {0x21, 0x22};
    m.avkSignature = {0x23};
    return m;
}

CertResponse
sampleCertResponse()
{
    CertResponse m;
    m.sessionLabel = "sess-9";
    m.ok = true;
    m.error = "e";
    m.certificate = {0x24, 0x25};
    return m;
}

LaunchVm
sampleLaunchVm()
{
    LaunchVm m;
    m.vid = "vm-l";
    m.name = "web";
    m.numVcpus = 2;
    m.ramMb = 1024;
    m.diskGb = 4;
    m.imageSizeMb = 100;
    m.image = {0x30, 0x31};
    m.weight = 512;
    return m;
}

LaunchVmAck
sampleLaunchVmAck()
{
    LaunchVmAck m;
    m.vid = "vm-l";
    m.ok = true;
    m.error = "x";
    m.imageDigest = {0x32};
    return m;
}

VmCommand
sampleVmCommand()
{
    VmCommand m;
    m.vid = "vm-c";
    return m;
}

VmCommandAck
sampleVmCommandAck()
{
    VmCommandAck m;
    m.vid = "vm-c";
    m.ok = true;
    m.error = "y";
    return m;
}

LaunchRequest
sampleLaunchRequest()
{
    LaunchRequest m;
    m.requestId = 16;
    m.name = "web";
    m.imageName = "ubuntu";
    m.flavorName = "m1.small";
    m.properties = {SecurityProperty::CovertChannelFreedom};
    m.image = {0x33};
    m.imageSizeMb = 50;
    return m;
}

LaunchResponse
sampleLaunchResponse()
{
    LaunchResponse m;
    m.requestId = 17;
    m.vid = "vm-n";
    m.ok = true;
    m.error = "z";
    return m;
}

ReplicateEntries
sampleReplicateEntries()
{
    ReplicateEntries m;
    m.round = 2;
    m.leaderId = "ctrl-a";
    m.prevLsn = 4;
    ReplicatedRecord rec;
    rec.lsn = 5;
    rec.type = 0x103; // any opaque u16 record type
    rec.payload = {0x41, 0x42};
    m.records.push_back(rec);
    m.commitLsn = 5;
    m.hasSnapshot = true;
    m.snapshot = {0x43};
    m.snapshotLsn = 3;
    return m;
}

ReplicateAck
sampleReplicateAck()
{
    ReplicateAck m;
    m.round = 2;
    m.lastLsn = 5;
    return m;
}

VoteRequest
sampleVoteRequest()
{
    VoteRequest m;
    m.round = 3;
    m.lastLogRound = 2;
    m.lastLsn = 9;
    m.prevote = true;
    return m;
}

VoteGrant
sampleVoteGrant()
{
    VoteGrant m;
    m.round = 3;
    m.prevote = true;
    return m;
}

NotLeader
sampleNotLeader()
{
    NotLeader m;
    m.requestId = 18;
    m.isLaunch = true;
    m.leaderId = "ctrl-b";
    m.round = 3;
    return m;
}

MigrateOut
sampleMigrateOut()
{
    MigrateOut m;
    m.vid = "vm-g";
    m.targetServer = "server-4";
    return m;
}

MigrateIn
sampleMigrateIn()
{
    MigrateIn m;
    m.vid = "vm-g";
    m.name = "web";
    m.numVcpus = 2;
    m.ramMb = 768;
    m.diskGb = 2;
    m.imageSizeMb = 60;
    m.image = {0x50};
    m.weight = 128;
    m.guestTasks = {"init", "sshd"};
    m.hiddenTasks = {"rk"};
    m.auditEntries = {"a1"};
    return m;
}

// --- Golden byte vectors ---------------------------------------------

/**
 * The frozen tagged encodings (kWireV2) of the samples above. These
 * hex strings are the released wire layout: a mismatch means a field
 * was renumbered, retyped or reordered — which breaks rolling
 * upgrades — and must be a new field number instead.
 */
struct GoldenCase
{
    const char *name;
    Bytes actual;
    const char *expected;
};

std::vector<GoldenCase>
goldenCases()
{
    return {
        {"AttestRequest", sampleAttestRequest().encodeTagged(kV2),
         "08071205766d2d34321a02020422040102030428023080dac4097803"},
        {"AttestForward", sampleAttestForward().encodeTagged(kV2),
         "08091204766d2d311a087365727665722d322201012a020909300038"
         "80897a7803"},
        {"MeasureRequest", sampleMeasureRequest().encodeTagged(kV2),
         "080b1204766d2d6d1a02010622020a0b288092f4017803"},
        {"MeasureResponse", sampleMeasureResponse().encodeTagged(kV2),
         "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
         "020e0f4201107803"},
        {"ReportToController", sampleReportToController().encodeTagged(kV2),
         "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
         "721208080210001a026f6b1880ade2043201113a0112420213147803"},
        {"ReportToCustomer", sampleReportToCustomer().encodeTagged(kV2),
         "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
         "6b1880ade2042a01153201163a011740017803"},
        {"AttestFailure", sampleAttestFailure().encodeTagged(kV2),
         "080f1204766d2d661801220b6e6f206174746573746f72"},
        {"CertRequest", sampleCertRequest().encodeTagged(kV2),
         "0a087365727665722d331206736573732d391a022122220123"},
        {"CertResponse", sampleCertResponse().encodeTagged(kV2),
         "0a06736573732d3910011a016522022425"},
        {"LaunchVm", sampleLaunchVm().encodeTagged(kV2),
         "0a04766d2d6c12037765621802208008280430643a023031408008"},
        {"LaunchVmAck", sampleLaunchVmAck().encodeTagged(kV2),
         "0a04766d2d6c10011a0178220132"},
        {"VmCommand", sampleVmCommand().encodeTagged(kV2),
         "0a04766d2d63"},
        {"VmCommandAck", sampleVmCommandAck().encodeTagged(kV2),
         "0a04766d2d6310011a0179"},
        {"LaunchRequest", sampleLaunchRequest().encodeTagged(kV2),
         "081012037765621a067562756e747522086d312e736d616c6c2a0103"
         "3201333832"},
        {"LaunchResponse", sampleLaunchResponse().encodeTagged(kV2),
         "08111204766d2d6e180122017a"},
        {"ReplicateEntries", sampleReplicateEntries().encodeTagged(kV2),
         "080212066374726c2d611804220908051083021a024142280530013a"
         "01434003"},
        {"ReplicateAck", sampleReplicateAck().encodeTagged(kV2),
         "08021005"},
        {"VoteRequest", sampleVoteRequest().encodeTagged(kV2),
         "0803100218092001"},
        {"VoteGrant", sampleVoteGrant().encodeTagged(kV2),
         "08031001"},
        {"NotLeader", sampleNotLeader().encodeTagged(kV2),
         "081210011a066374726c2d622003"},
        {"MigrateOut", sampleMigrateOut().encodeTagged(kV2),
         "0a04766d2d6712087365727665722d34"},
        {"MigrateIn", sampleMigrateIn().encodeTagged(kV2),
         "0a04766d2d67120377656218022080062802303c3a01504080024a04"
         "696e69744a04737368645202726b5a026131"},
    };
}

TEST(WireConformanceTest, GoldenByteVectors)
{
    for (const GoldenCase &c : goldenCases())
        EXPECT_EQ(toHex(c.actual), c.expected) << c.name;
}

// --- Frame self-description ------------------------------------------

TEST(WireConformanceTest, FramesSelfDescribe)
{
    const Bytes body = toBytes("body");
    const Bytes legacy = packMessage(MessageKind::AttestRequest, body);
    const Bytes tagged =
        packMessageTagged(MessageKind::AttestRequest, body);

    // Frozen frame headers: kind u8 || u32 len (legacy) vs
    // 0xC1 || kind u8 || varint len (tagged).
    EXPECT_EQ(legacy[0], 0x01);
    EXPECT_EQ(tagged[0], kTaggedFrameMarker);
    EXPECT_EQ(tagged[1], 0x01);

    auto l = unpackMessage(legacy);
    ASSERT_TRUE(l.isOk());
    EXPECT_EQ(l.value().format, WireFormat::Legacy);
    EXPECT_EQ(l.value().kind, MessageKind::AttestRequest);
    EXPECT_EQ(l.value().body, body);

    auto t = unpackMessage(tagged);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().format, WireFormat::Tagged);
    EXPECT_EQ(t.value().kind, MessageKind::AttestRequest);
    EXPECT_EQ(t.value().body, body);

    // Truncated / corrupt tagged frames are errors.
    EXPECT_FALSE(unpackMessage(Bytes{kTaggedFrameMarker}).isOk());
    EXPECT_FALSE(unpackMessage(Bytes{kTaggedFrameMarker, 0x01}).isOk());
    Bytes overlong{kTaggedFrameMarker, 0x01, 0x7f};
    EXPECT_FALSE(unpackMessage(overlong).isOk());
}

// --- Schema-registry invariants --------------------------------------

TEST(WireConformanceTest, SchemaRegistryInvariants)
{
    const auto &schemas = wireSchemas();
    ASSERT_FALSE(schemas.empty());
    std::set<std::uint8_t> kinds;
    for (const MessageSchema &s : schemas) {
        EXPECT_NE(s.name, nullptr);
        EXPECT_TRUE(kinds.insert(s.kind).second)
            << "duplicate kind " << unsigned(s.kind);
        std::set<std::uint32_t> numbers;
        for (const FieldSpec &f : s.fields) {
            EXPECT_NE(f.number, 0u) << s.name;
            EXPECT_TRUE(numbers.insert(f.number).second)
                << s.name << " reuses field " << f.number;
            EXPECT_GE(f.since, kWireV1) << s.name;
            EXPECT_LE(f.since, kWireVersionLatest) << s.name;
            EXPECT_NE(f.name, nullptr) << s.name;
        }
        EXPECT_EQ(schemaFor(s.kind), &s);
    }
    EXPECT_EQ(schemaFor(0xff), nullptr);

    // senderBuild always sits at the reserved number with since=v2.
    for (const MessageSchema &s : schemas) {
        for (const FieldSpec &f : s.fields) {
            if (std::string(f.name) == "senderBuild") {
                EXPECT_EQ(f.number, kSenderBuildField) << s.name;
                EXPECT_EQ(f.since, kWireV2) << s.name;
            }
        }
    }
}

// --- Legacy ↔ tagged equivalence -------------------------------------

/** Legacy re-encode of a tagged round trip must be byte-identical. */
template <typename M>
void
expectTaggedMatchesLegacy(const M &msg)
{
    auto viaTagged = M::decodeTagged(msg.encodeTagged(kV2));
    ASSERT_TRUE(viaTagged.isOk()) << viaTagged.errorMessage();
    EXPECT_EQ(viaTagged.value().encode(), msg.encode());
}

TEST(WireConformanceTest, TaggedRoundTripMatchesLegacyEncoding)
{
    expectTaggedMatchesLegacy(sampleAttestRequest());
    expectTaggedMatchesLegacy(sampleAttestForward());
    expectTaggedMatchesLegacy(sampleMeasureRequest());
    expectTaggedMatchesLegacy(sampleMeasureResponse());
    expectTaggedMatchesLegacy(sampleReport());
    expectTaggedMatchesLegacy(sampleReportToController());
    expectTaggedMatchesLegacy(sampleReportToCustomer());
    expectTaggedMatchesLegacy(sampleAttestFailure());
    expectTaggedMatchesLegacy(sampleCertRequest());
    expectTaggedMatchesLegacy(sampleCertResponse());
    expectTaggedMatchesLegacy(sampleLaunchVm());
    expectTaggedMatchesLegacy(sampleLaunchVmAck());
    expectTaggedMatchesLegacy(sampleVmCommand());
    expectTaggedMatchesLegacy(sampleVmCommandAck());
    expectTaggedMatchesLegacy(sampleLaunchRequest());
    expectTaggedMatchesLegacy(sampleLaunchResponse());
    expectTaggedMatchesLegacy(sampleReplicateEntries());
    expectTaggedMatchesLegacy(sampleReplicateAck());
    expectTaggedMatchesLegacy(sampleVoteRequest());
    expectTaggedMatchesLegacy(sampleVoteGrant());
    expectTaggedMatchesLegacy(sampleNotLeader());
    expectTaggedMatchesLegacy(sampleMigrateOut());
    expectTaggedMatchesLegacy(sampleMigrateIn());
}

TEST(WireConformanceTest, DefaultMessagesEncodeEmptyAndDecode)
{
    // A default-constructed message encodes to nothing (omit-default)
    // and nothing decodes back to a default-constructed message.
    EXPECT_TRUE(AttestRequest{}.encodeTagged(kV1).empty());
    EXPECT_TRUE(VmCommandAck{}.encodeTagged(kV1).empty());
    EXPECT_TRUE(ReplicateAck{}.encodeTagged(kV1).empty());
    auto d = AttestRequest::decodeTagged(Bytes{});
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().encode(), AttestRequest{}.encode());
}

// --- Mixed-version contract (v1 ↔ v2, both directions) ---------------

TEST(WireConformanceTest, V1EncoderOmitsV2Fields)
{
    // Old encoder → new decoder: senderBuild never on the wire at v1,
    // so the v2 decoder keeps its default (0 = pre-v2 peer).
    AttestRequest m = sampleAttestRequest();
    const Bytes v1Bytes = m.encodeTagged(kV1);
    const Bytes v2Bytes = m.encodeTagged(kV2);
    EXPECT_LT(v1Bytes.size(), v2Bytes.size());

    auto d = AttestRequest::decodeTagged(v1Bytes);
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().senderBuild, 0u);
    EXPECT_EQ(d.value().vid, m.vid);
}

TEST(WireConformanceTest, V2FieldsSurviveToV2Decoder)
{
    auto d = AttestRequest::decodeTagged(
        sampleAttestRequest().encodeTagged(kV2));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().senderBuild, 3u);
}

TEST(WireConformanceTest, UnknownFutureFieldsAreSkipped)
{
    // New encoder → old decoder: splice a hypothetical v3 field (a
    // LEN at an unreleased number and a VARINT at another) into a v2
    // message; today's decoder must skip both and decode the rest.
    Bytes bytes = sampleAttestRequest().encodeTagged(kV2);
    wire::WireWriter extra;
    extra.putString(1000, "from-the-future");
    extra.putVarint(999, 0xbeef);
    Bytes future = extra.take();
    bytes.insert(bytes.end(), future.begin(), future.end());

    auto d = AttestRequest::decodeTagged(bytes);
    ASSERT_TRUE(d.isOk()) << d.errorMessage();
    EXPECT_EQ(d.value().encode(), sampleAttestRequest().encode());
}

TEST(WireConformanceTest, WrongWireTypeOnKnownFieldIsSkipped)
{
    // A future schema may retype-by-renumber; a known number arriving
    // with an unexpected wire type is skipped, not an error.
    wire::WireWriter w;
    w.putString(1, "not-a-varint"); // field 1 is requestId: VARINT
    w.putString(2, "vm-ok");
    auto d = AttestRequest::decodeTagged(w.take());
    ASSERT_TRUE(d.isOk()) << d.errorMessage();
    EXPECT_EQ(d.value().requestId, 0u);
    EXPECT_EQ(d.value().vid, "vm-ok");
}

// --- v3: the TCB-version axis (field 9 on quote/report paths) --------

MeasureResponse
sampleMeasureResponseV3()
{
    MeasureResponse m = sampleMeasureResponse();
    m.tcbVersion = 7;
    return m;
}

ReportToController
sampleReportToControllerV3()
{
    ReportToController m = sampleReportToController();
    m.tcbVersion = 7;
    return m;
}

ReportToCustomer
sampleReportToCustomerV3()
{
    ReportToCustomer m = sampleReportToCustomer();
    m.tcbVersion = 7;
    return m;
}

TEST(WireConformanceTest, GoldenByteVectorsV3)
{
    // Frozen v3 encodings: tcbVersion rides field 9 (tag 0x48) on the
    // three quote/report messages. A mismatch means the released TCB
    // field moved — use a new number instead.
    const std::vector<GoldenCase> cases = {
        {"MeasureResponse", sampleMeasureResponseV3().encodeTagged(kV3),
         "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
         "020e0f42011048077803"},
        {"ReportToController",
         sampleReportToControllerV3().encodeTagged(kV3),
         "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
         "721208080210001a026f6b1880ade2043201113a011242021314480778"
         "03"},
        {"ReportToCustomer", sampleReportToCustomerV3().encodeTagged(kV3),
         "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
         "6b1880ade2042a01153201163a0117400148077803"},
    };
    for (const GoldenCase &c : cases)
        EXPECT_EQ(toHex(c.actual), c.expected) << c.name;
}

TEST(WireConformanceTest, V2EncoderOmitsTcbVersion)
{
    // Old (v2) encoder → new decoder: the field is version-gated, so
    // a v2 peer never puts it on the wire even when the member is set;
    // the v3 decoder keeps the default 0 — which the AS minimum-TCB
    // floor deliberately treats as below-minimum (a host that strips
    // the measurement must not out-trust one reporting an old build).
    EXPECT_EQ(toHex(sampleMeasureResponseV3().encodeTagged(kV2)),
              toHex(sampleMeasureResponse().encodeTagged(kV2)));
    auto d = MeasureResponse::decodeTagged(
        sampleMeasureResponseV3().encodeTagged(kV2));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().tcbVersion, 0u);
}

TEST(WireConformanceTest, TcbVersionDefaultIsOmittedAtV3)
{
    // Omit-default: a v3 encoder with the TCB axis disarmed (version
    // 0) emits bytes identical to v2 — upgrading the fleet without
    // arming the policy changes nothing on the wire.
    EXPECT_EQ(toHex(sampleMeasureResponse().encodeTagged(kV3)),
              toHex(sampleMeasureResponse().encodeTagged(kV2)));
    EXPECT_EQ(toHex(sampleReportToController().encodeTagged(kV3)),
              toHex(sampleReportToController().encodeTagged(kV2)));
    EXPECT_EQ(toHex(sampleReportToCustomer().encodeTagged(kV3)),
              toHex(sampleReportToCustomer().encodeTagged(kV2)));
}

TEST(WireConformanceTest, TcbVersionSurvivesV3RoundTrip)
{
    auto mr = MeasureResponse::decodeTagged(
        sampleMeasureResponseV3().encodeTagged(kV3));
    ASSERT_TRUE(mr.isOk());
    EXPECT_EQ(mr.value().tcbVersion, 7u);
    auto rc = ReportToController::decodeTagged(
        sampleReportToControllerV3().encodeTagged(kV3));
    ASSERT_TRUE(rc.isOk());
    EXPECT_EQ(rc.value().tcbVersion, 7u);
    auto ru = ReportToCustomer::decodeTagged(
        sampleReportToCustomerV3().encodeTagged(kV3));
    ASSERT_TRUE(ru.isOk());
    EXPECT_EQ(ru.value().tcbVersion, 7u);
}

TEST(WireConformanceTest, TcbSchemaRowsAreV3)
{
    EXPECT_EQ(kWireVersionLatest, kWireV3);
    std::size_t rows = 0;
    for (const MessageSchema &s : wireSchemas()) {
        const std::string name = s.name;
        const bool carrier = name == "MeasureResponse" ||
                             name == "ReportToController" ||
                             name == "ReportToCustomer";
        for (const FieldSpec &f : s.fields) {
            if (std::string(f.name) != "tcbVersion")
                continue;
            ++rows;
            EXPECT_TRUE(carrier) << name << " must not carry tcbVersion";
            EXPECT_EQ(f.number, 9u) << name;
            EXPECT_EQ(f.since, kWireV3) << name;
        }
    }
    EXPECT_EQ(rows, 3u) << "tcbVersion rides exactly the quote/report "
                           "messages";
}

} // namespace
} // namespace monatt::proto
