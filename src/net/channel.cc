#include "net/channel.h"

namespace xcrypt {
namespace net {

Status WriteFrame(Socket& sock, MessageType type, const Bytes& payload,
                  uint64_t frame_id) {
  const Bytes frame = EncodeFrame(type, payload, frame_id);
  return sock.SendAll(frame.data(), frame.size());
}

Result<Frame> ReadFrame(Socket& sock, uint64_t max_frame_bytes,
                        double timeout_sec, const std::atomic<bool>* cancel,
                        bool allow_idle) {
  uint8_t header[kFrameHeaderBytes];
  XCRYPT_RETURN_NOT_OK(sock.RecvAll(header, sizeof(header), timeout_sec,
                                    cancel, allow_idle));
  uint32_t payload_length = 0;
  auto frame = DecodeFrameHeader(header, max_frame_bytes, &payload_length);
  if (!frame.ok()) return frame.status();
  frame->frame_id = DecodeFrameId(header + kFramePrefixBytes);
  frame->payload.resize(payload_length);
  if (payload_length > 0) {
    XCRYPT_RETURN_NOT_OK(sock.RecvAll(frame->payload.data(), payload_length,
                                      timeout_sec, cancel,
                                      /*allow_idle=*/false));
  }
  return frame;
}

}  // namespace net
}  // namespace xcrypt
