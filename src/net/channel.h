#ifndef XCRYPT_NET_CHANNEL_H_
#define XCRYPT_NET_CHANNEL_H_

#include <atomic>

#include "net/socket.h"
#include "net/wire.h"

namespace xcrypt {
namespace net {

/// Sends one complete frame.
Status WriteFrame(Socket& sock, MessageType type, const Bytes& payload,
                  uint64_t frame_id = 0);

/// Receives one complete frame: header first (validated before the
/// payload is allocated, so a corrupt length can never balloon memory),
/// then exactly the announced payload. `allow_idle` lets a reader wait
/// indefinitely for the *start* of the next frame on a persistent
/// connection while still bounding how long a partial frame may stall.
/// Framing violations (bad magic/type/length) return Corruption or
/// Unsupported; transport failures return Unavailable.
Result<Frame> ReadFrame(Socket& sock, uint64_t max_frame_bytes,
                        double timeout_sec,
                        const std::atomic<bool>* cancel = nullptr,
                        bool allow_idle = false);

}  // namespace net
}  // namespace xcrypt

#endif  // XCRYPT_NET_CHANNEL_H_
