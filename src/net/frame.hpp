// The fabric's wire unit: length-prefixed frames carried over the raw
// sockets of net/socket.hpp. One header layout, 16 bytes:
//
//   bytes 0..3   magic "PRTF"
//   byte  4      protocol version = 5
//   byte  5      frame type (FrameType)
//   bytes 6..7   request id, high 16 bits, big-endian
//   bytes 8..11  payload length, big-endian
//   bytes 12..15 request id, low 32 bits, big-endian
//
// The 48-bit request id multiplexes many in-flight exchanges on one
// connection, replies in any order: a reply carries the request id of
// the frame it answers, and id 0 is reserved for unsolicited frames.
//
// Magic, version and length sit in the first 12 bytes, so a header is
// validated before its 4 id bytes are read: a peer speaking any other
// version (including the retired 12-byte v1 layout, the v2 frame set,
// v3, whose cache keys hashed the canonical text, and v4, whose keys
// hashed the whole request into both words where v5's hi is the batch
// key's, service/canonical.hpp) gets its kError at once instead of a
// server waiting for bytes that never come. A version refused at
// connect is the point: a rank keying and placing by other rules would
// otherwise forward to owners that never find its keys.
//
// The decoder is incremental (feed it a growing buffer, it reports
// kNeedMore until a full frame is present) and defensive: bad magic,
// unsupported version and oversized length are distinct, recoverable
// verdicts — a server answers them with a kError frame and closes the
// connection instead of trusting a corrupted length field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace prts::net {

class Socket;

inline constexpr std::uint8_t kProtocolVersion = 5;
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Request ids are 48 bits on the wire (16 high bits in bytes 6..7, 32
/// low bits in bytes 12..15); encode_frame masks anything wider.
inline constexpr std::uint64_t kMaxRequestId = (std::uint64_t{1} << 48) - 1;

/// Refuse to allocate for absurd length fields (a corrupted or hostile
/// header must not become a multi-gigabyte allocation).
inline constexpr std::size_t kDefaultMaxPayload = 64 * 1024 * 1024;

enum class FrameType : std::uint8_t {
  kError = 0,         ///< payload: human-readable reason
  kSolveRequest = 1,  ///< payload: service::encode wire request
  kSolveReply = 2,    ///< payload: service::encode wire reply
  kPing = 3,          ///< payload ignored
  kPong = 4,          ///< answer to kPing, payload echoed
  kMetricsRequest = 10,    ///< payload ignored; scrape this rank
  kMetricsReply = 11,      ///< payload: prometheus-style text exposition
  kJoinRequest = 12,       ///< payload: service::encode_join_request (a
                           ///< rank dialing any seed to enter the
                           ///< fleet); answered with kMembershipUpdate
  kMembershipUpdate = 13,  ///< payload: service::encode_membership_update
                           ///< (epoch-stamped member list); answered
                           ///< with the receiver's own merged view
  kEntries = 15,           ///< payload: service::encode_entries (cache
                           ///< entries one rank ships another: a
                           ///< handoff chunk, a double-write or a
                           ///< gossip push); answered with kPong
  kAuth = 17,              ///< payload: shared-secret token; must be a
                           ///< connection's first frame when the server
                           ///< has a token configured. kPong on success,
                           ///< kError + close on mismatch.
};

struct Frame {
  FrameType type = FrameType::kError;
  /// Correlation id (48 bits used); 0 on unsolicited frames.
  std::uint64_t request_id = 0;
  std::string payload;
};

/// Header + payload as one byte string.
std::string encode_frame(const Frame& frame);

enum class DecodeStatus {
  kFrame,       ///< a complete frame was decoded
  kNeedMore,    ///< buffer holds a prefix of a valid frame
  kBadMagic,    ///< first four bytes are not "PRTF"
  kBadVersion,  ///< header version is not kProtocolVersion
  kOversized,   ///< length field exceeds max_payload
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;              ///< valid iff status == kFrame
  std::size_t consumed = 0; ///< bytes to drop from the buffer front
};

/// Decodes the first frame of `buffer`. On kFrame, `consumed` covers
/// header + payload; on the error verdicts the connection is
/// unrecoverable (framing is lost) and the caller should close.
DecodeResult decode_frame(std::string_view buffer,
                          std::size_t max_payload = kDefaultMaxPayload);

/// Incremental frame decoder over an arbitrarily-chunked byte stream:
/// feed() whatever the transport delivered (single bytes, coalesced
/// frames, anything in between), next() yields complete frames in
/// order. Decoding is invariant under re-chunking — the property the
/// frame soak tests pin. Error verdicts (bad magic/version/oversized)
/// are sticky: framing is lost for good and every later next() repeats
/// the verdict.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes to the internal buffer.
  void feed(std::string_view bytes);

  /// Decodes (and consumes) the earliest complete frame in the buffer;
  /// kNeedMore while only a prefix is present.
  DecodeResult next();

  /// Bytes fed but not yet consumed by next().
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t max_payload_;
  std::optional<DecodeStatus> poisoned_;  ///< sticky error verdict
};

enum class FrameReadStatus {
  kOk,
  kClosed,      ///< clean EOF between frames, or hard IO error
  kTimeout,     ///< the socket's receive timeout elapsed — the peer is
                ///< slow or wedged, not necessarily dead; clients back
                ///< this off more gently than a refused connection
  kTruncated,   ///< EOF or error in the middle of a frame
  kBadMagic,
  kBadVersion,
  kOversized,
};

/// Blocking read of exactly one frame from the socket.
FrameReadStatus read_frame(Socket& socket, Frame& frame,
                           std::size_t max_payload = kDefaultMaxPayload);

/// Blocking write of one frame; false on any IO error.
bool write_frame(Socket& socket, const Frame& frame);

}  // namespace prts::net
