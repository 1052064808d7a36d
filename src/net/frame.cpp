#include "net/frame.hpp"

#include <cstring>

#include "net/socket.hpp"

namespace prts::net {
namespace {

constexpr char kMagic[4] = {'P', 'R', 'T', 'F'};

/// Magic, version, type and length: everything validate_prefix needs
/// before the 4 request-id bytes are read.
constexpr std::size_t kPrefixBytes = 12;

void put_u32_be(char* out, std::uint32_t value) noexcept {
  out[0] = static_cast<char>((value >> 24) & 0xff);
  out[1] = static_cast<char>((value >> 16) & 0xff);
  out[2] = static_cast<char>((value >> 8) & 0xff);
  out[3] = static_cast<char>(value & 0xff);
}

std::uint32_t get_u32_be(const unsigned char* in) noexcept {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

std::uint16_t get_u16_be(const unsigned char* in) noexcept {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(in[0]) << 8) |
                                    static_cast<std::uint16_t>(in[1]));
}

/// Validates the 12-byte header prefix; kFrame here means "prefix
/// well-formed" (the 4 id bytes may still be owed).
DecodeStatus validate_prefix(const unsigned char* header,
                             std::size_t max_payload,
                             std::uint32_t& length) noexcept {
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return DecodeStatus::kBadMagic;
  }
  if (header[4] != kProtocolVersion) return DecodeStatus::kBadVersion;
  length = get_u32_be(header + 8);
  if (length > max_payload) return DecodeStatus::kOversized;
  return DecodeStatus::kFrame;
}

std::uint64_t request_id_of(const unsigned char* header) noexcept {
  return (static_cast<std::uint64_t>(get_u16_be(header + 6)) << 32) |
         static_cast<std::uint64_t>(get_u32_be(header + 12));
}

/// A receive that stopped short: a timeout keeps its own verdict, any
/// other failure is `otherwise` (kClosed between frames, kTruncated
/// inside one).
FrameReadStatus short_read(Socket::RecvStatus status,
                           FrameReadStatus otherwise) noexcept {
  return status == Socket::RecvStatus::kTimeout ? FrameReadStatus::kTimeout
                                                : otherwise;
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  const std::uint64_t id = frame.request_id & kMaxRequestId;
  std::string bytes;
  bytes.resize(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(bytes.data(), kMagic, sizeof(kMagic));
  bytes[4] = static_cast<char>(kProtocolVersion);
  bytes[5] = static_cast<char>(frame.type);
  bytes[6] = static_cast<char>((id >> 40) & 0xff);
  bytes[7] = static_cast<char>((id >> 32) & 0xff);
  put_u32_be(bytes.data() + 8,
             static_cast<std::uint32_t>(frame.payload.size()));
  put_u32_be(bytes.data() + 12, static_cast<std::uint32_t>(id & 0xffffffffu));
  std::memcpy(bytes.data() + kFrameHeaderBytes, frame.payload.data(),
              frame.payload.size());
  return bytes;
}

DecodeResult decode_frame(std::string_view buffer, std::size_t max_payload) {
  DecodeResult result;
  if (buffer.size() < kPrefixBytes) return result;  // kNeedMore

  const auto* header =
      reinterpret_cast<const unsigned char*>(buffer.data());
  std::uint32_t length = 0;
  const DecodeStatus verdict = validate_prefix(header, max_payload, length);
  if (verdict != DecodeStatus::kFrame) {
    result.status = verdict;
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes + length) return result;

  result.status = DecodeStatus::kFrame;
  result.frame.type = static_cast<FrameType>(header[5]);
  result.frame.request_id = request_id_of(header);
  result.frame.payload.assign(buffer.data() + kFrameHeaderBytes, length);
  result.consumed = kFrameHeaderBytes + length;
  return result;
}

void FrameDecoder::feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

DecodeResult FrameDecoder::next() {
  if (poisoned_) {
    DecodeResult result;
    result.status = *poisoned_;
    return result;
  }
  DecodeResult result = decode_frame(buffer_, max_payload_);
  if (result.status == DecodeStatus::kFrame) {
    buffer_.erase(0, result.consumed);
    result.consumed = 0;  // already dropped; nothing left for the caller
  } else if (result.status != DecodeStatus::kNeedMore) {
    poisoned_ = result.status;
  }
  return result;
}

FrameReadStatus read_frame(Socket& socket, Frame& frame,
                           std::size_t max_payload) {
  unsigned char header[kFrameHeaderBytes];
  // The first byte separates "clean EOF between frames" from "peer died
  // mid-frame" — the robustness tests distinguish the two. A receive
  // timeout anywhere is its own verdict: the connection may be fine,
  // the peer is just slow.
  std::size_t got = 0;
  Socket::RecvStatus status = socket.recv_some_status(header, 1, got);
  if (status != Socket::RecvStatus::kOk) {
    return short_read(status, FrameReadStatus::kClosed);
  }
  status = socket.recv_exact(header + 1, kPrefixBytes - 1);
  if (status != Socket::RecvStatus::kOk) {
    return short_read(status, FrameReadStatus::kTruncated);
  }

  std::uint32_t length = 0;
  switch (validate_prefix(header, max_payload, length)) {
    case DecodeStatus::kBadMagic:
      return FrameReadStatus::kBadMagic;
    case DecodeStatus::kBadVersion:
      return FrameReadStatus::kBadVersion;
    case DecodeStatus::kOversized:
      return FrameReadStatus::kOversized;
    default:
      break;
  }

  status = socket.recv_exact(header + kPrefixBytes,
                             kFrameHeaderBytes - kPrefixBytes);
  if (status != Socket::RecvStatus::kOk) {
    return short_read(status, FrameReadStatus::kTruncated);
  }
  frame.type = static_cast<FrameType>(header[5]);
  frame.request_id = request_id_of(header);
  frame.payload.resize(length);
  if (length > 0) {
    status = socket.recv_exact(frame.payload.data(), length);
    if (status != Socket::RecvStatus::kOk) {
      return short_read(status, FrameReadStatus::kTruncated);
    }
  }
  return FrameReadStatus::kOk;
}

bool write_frame(Socket& socket, const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  return socket.send_all(bytes.data(), bytes.size());
}

}  // namespace prts::net
