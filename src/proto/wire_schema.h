/**
 * @file
 * Schema layer for the tagged wire format: versions, per-node wire
 * context, and the field-number registry.
 *
 * CloudMonatt carries every message in one of two encodings:
 *
 *   Legacy — the canonical fixed-width layout in common/codec.h.
 *            Frozen forever; quote preimages, signed portions and
 *            golden trace digests are defined over these bytes.
 *   Tagged — protobuf-style tag||value fields (common/wire.h) that
 *            tolerate schema drift: decoders skip unknown field
 *            numbers and default missing ones, so nodes on different
 *            schema versions interoperate during a rolling upgrade.
 *
 * Frames are self-describing: a tagged frame opens with
 * kTaggedFrameMarker (0xC1, not a valid legacy MessageKind byte), so a
 * receiver decodes whatever arrives regardless of its own WireContext.
 * The WireContext only chooses what a node *sends*; journal records,
 * snapshots and replication entries are always the legacy layout.
 *
 * Field-numbering rules (enforced by wireSchemas() + the conformance
 * tests):
 *   - numbers start at 1 in struct declaration order; 0 is invalid
 *   - a number is never reused or retyped once released
 *   - new fields take fresh numbers with `since` = the version that
 *     introduced them; senderBuild uses the reserved number 15 in
 *     every attest-chain message
 *   - lists of small enums are packed varints in one LEN field;
 *     repeated strings/messages repeat their field number
 */

#ifndef MONATT_PROTO_WIRE_SCHEMA_H
#define MONATT_PROTO_WIRE_SCHEMA_H

#include <cstdint>
#include <vector>

#include "common/wire.h"

namespace monatt::proto
{

/** On-wire encoding a node uses for the frames it sends. */
enum class WireFormat : std::uint8_t
{
    Legacy = 0, //!< Fixed-width canonical layout (default).
    Tagged = 1, //!< Tag/wire-type schema-evolvable layout.
};

/** First released tagged schema. */
inline constexpr std::uint32_t kWireV1 = 1;

/** Adds senderBuild (field 15) to the attest-chain messages. */
inline constexpr std::uint32_t kWireV2 = 2;

/** Adds tcbVersion (field 9) to quotes and property reports. */
inline constexpr std::uint32_t kWireV3 = 3;

/** The schema version this build encodes by default. */
inline constexpr std::uint32_t kWireVersionLatest = kWireV3;

/**
 * Per-node wire settings: which encoding this node emits and which
 * schema version it encodes at. Decoding is always format-agnostic
 * (frames self-describe) and version-tolerant (skip/default).
 */
struct WireContext
{
    WireFormat format = WireFormat::Legacy;
    std::uint32_t version = kWireVersionLatest;
};

/**
 * First byte of a tagged message frame. Legacy frames start with the
 * MessageKind byte (1..54), so 0xC1 unambiguously marks the format.
 */
inline constexpr std::uint8_t kTaggedFrameMarker = 0xC1;

/** Reserved field number for senderBuild in attest-chain messages. */
inline constexpr std::uint32_t kSenderBuildField = 15;

/** One declared field of a tagged message schema. */
struct FieldSpec
{
    std::uint32_t number;
    wire::WireType type;
    const char *name;
    std::uint32_t since; //!< Schema version that introduced the field.
};

/** The declared tagged schema of one MessageKind. */
struct MessageSchema
{
    std::uint8_t kind; //!< MessageKind value (avoids a header cycle).
    const char *name;
    std::vector<FieldSpec> fields;
};

/**
 * Every released tagged message schema, in MessageKind order. The
 * encoders in messages.cpp are hand-written against this table; the
 * conformance tests cross-check both (golden bytes catch an encoder
 * drifting, schema invariants catch the table drifting).
 */
const std::vector<MessageSchema> &wireSchemas();

/** Schema for a MessageKind value; nullptr when the kind is unknown. */
const MessageSchema *schemaFor(std::uint8_t kind);

} // namespace monatt::proto

#endif // MONATT_PROTO_WIRE_SCHEMA_H
