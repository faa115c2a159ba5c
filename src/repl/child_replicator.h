// ChildReplicator — the recording process's half of parent/child
// replication (DESIGN.md §16).
//
// The child records through its own ArenaSmbEngine as usual and tells
// the replicator which flows changed (NoteRecorded). CutDelta() then
// writes the dirty set's states as one SMBZ1 snapshot straight from the
// engine's rows (ArenaSmbEngine::SerializeSmbz1), assigns it the next
// sequence number, and spools it to disk BEFORE it is ever offered to
// the socket — the spool is the retransmit buffer, so a parent outage
// degrades to local buffering and a child restart resumes from disk.
//
// Tick(now_ms) drives a single-threaded, nonblocking state machine:
//
//   kBackoff ──(timer)──> kConnecting ──(connect)──> kAwaitHelloAck
//        ^                                                │ hello-ack(hw)
//        │                                                v
//        └────────────(any socket error/deadline)─── kStreaming
//
// kStreaming retransmits every spooled delta above the parent's acked
// high-water in order, heartbeats when idle, and trims the spool as
// cumulative acks arrive. The parent applies strictly in order, so a
// delta the spool cannot read back drops the session rather than being
// skipped, and the first hello-ack renumbers deltas this process cut
// under numbers the parent already holds (a lost trim marker) to just
// past its mark. Deadlines bound connect, hello-ack and send
// progress; every failure lands in kBackoff with jittered exponential
// delay. Time is injected by the caller, so tests drive the whole
// machine deterministically with a fake clock.
//
// Delivery accounting is an identity the chaos suite asserts:
//
//   deltas_cut == deltas_delivered + deltas_spooled + deltas_shed
//
// (cut = accepted into the spool or definitively dropped; delivered =
// trimmed by acks; spooled = still pending; shed = dropped by the
// kDropNew budget policy. The kRetry policy never sheds — it refuses
// the cut, keeps the dirty set, and counts a deferral instead.) It is
// re-checked after every cut and every ack; a failure counts in the
// always-on repl_invariant_violations_total (and aborts a debug build).
//
// Failpoints exercised here:
//   repl.conn.reset   streaming connection torn down mid-flight
//   repl.send.short   frame truncated at `arg` bytes, then the
//                     connection is closed (a torn frame on the wire)
//   repl.send.corrupt frame bit `arg` flipped before sending
//   repl.send.dup     frame transmitted twice
//   repl.send.reorder adjacent spooled deltas swapped before sending (the
//                     parent refuses the early one and the session
//                     recycles)
//   repl.frame.delay  sending paused for `arg` milliseconds

#ifndef SMBCARD_REPL_CHILD_REPLICATOR_H_
#define SMBCARD_REPL_CHILD_REPLICATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "flow/arena_smb_engine.h"
#include "repl/delta_spool.h"
#include "repl/uds_socket.h"
#include "repl/wire_format.h"

namespace smb::repl {

// What happens when the spool budget refuses a freshly cut delta.
enum class SpoolShedPolicy : uint8_t {
  // Drop the delta (its dirty-flow states are lost until those flows
  // change again). Bounded memory, explicit data loss.
  kDropNew = 0,
  // Refuse the cut and keep the dirty set in memory; a later cut (after
  // acks drained the spool) carries the same flows' newest state.
  // Bounded disk, unbounded dirty set in the worst case.
  kRetry = 1,
};

class ChildReplicator {
 public:
  struct Options {
    std::string socket_path;
    uint64_t child_id = 0;
    DeltaSpool::Options spool;
    SpoolShedPolicy shed_policy = SpoolShedPolicy::kRetry;
    // Jittered exponential backoff between connect attempts.
    uint64_t backoff_initial_ms = 10;
    uint64_t backoff_max_ms = 2000;
    // Idle keepalive cadence.
    uint64_t heartbeat_interval_ms = 200;
    // Seed for backoff jitter (deterministic in tests).
    uint64_t jitter_seed = 0x5eed;
    // Delta payload encoding. Deltas are always SMBZ1 (wire_format.h),
    // so kCodecSmbz1 is the only accepted value and construction fails
    // on any other. The field remains so callers that set it explicitly
    // keep compiling.
    uint64_t codec_mask = kCodecSmbz1;
  };

  enum class State : uint8_t {
    kBackoff = 0,
    kConnecting,
    kAwaitHelloAck,
    kStreaming,
  };

  enum class CutStatus : uint8_t {
    kCut = 0,    // delta spooled and queued
    kEmpty,      // no dirty flows, nothing to cut
    kShed,       // budget refused; delta dropped (kDropNew)
    kDeferred,   // budget refused; dirty set retained (kRetry)
    kError,      // spool IO failure
  };

  struct Stats {
    uint64_t deltas_cut = 0;
    uint64_t deltas_delivered = 0;
    uint64_t deltas_shed = 0;
    uint64_t deltas_deferred = 0;
    uint64_t retransmits = 0;
    uint64_t conn_resets = 0;
    uint64_t connect_attempts = 0;
    uint64_t backoff_ms_total = 0;
    uint64_t heartbeats_sent = 0;
    // Spool view (the "spooled" term of the accounting identity).
    size_t spooled_deltas = 0;
    size_t spooled_bytes = 0;
    // Codec accounting over every cut delta: the FLW1-equivalent size
    // (flw1::ImageBytes of its flow count) vs SMBZ1 bytes spooled.
    uint64_t delta_raw_bytes = 0;
    uint64_t delta_stored_bytes = 0;
  };

  // `engine` must outlive the replicator and is read (never written) by
  // CutDelta.
  ChildReplicator(const ArenaSmbEngine* engine, const Options& options);

  ChildReplicator(const ChildReplicator&) = delete;
  ChildReplicator& operator=(const ChildReplicator&) = delete;

  // Marks a flow dirty: its full state rides the next cut delta.
  void NoteRecorded(uint64_t flow) { dirty_.insert(flow); }
  void NoteRecordedBatch(const Packet* packets, size_t n) {
    for (size_t i = 0; i < n; ++i) dirty_.insert(packets[i].flow);
  }

  // Snapshots the dirty set into the next sequence-numbered delta.
  CutStatus CutDelta(std::string* error);

  // Drives connection management, (re)transmission, acks and
  // heartbeats. `now_ms` is any monotonic millisecond clock.
  void Tick(uint64_t now_ms);

  // Sends a best-effort goodbye and closes the connection.
  void Shutdown();

  State state() const { return state_; }
  bool connected() const { return state_ == State::kStreaming; }
  uint64_t acked_seq() const { return spool_.TrimmedHighWater(); }
  uint64_t next_seq() const { return next_seq_; }
  size_t dirty_flows() const { return dirty_.size(); }
  // True when every cut delta has been delivered and acked.
  bool Drained() const {
    return spool_.PendingCount() == 0 && outbox_.empty() &&
           send_queue_.empty();
  }
  Stats stats() const;
  const Options& options() const { return options_; }

 private:
  // Checks the delivery accounting identity (above); every cut that
  // counts and every ack calls it.
  void CheckIdentity() const;
  void EnterBackoff(uint64_t now_ms);
  void StartConnecting(uint64_t now_ms);
  void OnConnected(uint64_t now_ms);
  void HandleIncoming(uint64_t now_ms);
  void HandleAck(uint64_t high_water);
  void PumpSend(uint64_t now_ms);
  // At the first hello-ack: renumbers this process's deltas past the
  // parent's `mark` when they collide with it; false on a spool failure.
  bool SettleOwnDeltas(uint64_t mark);
  void QueueFrame(const Frame& frame);
  // Frames spooled delta `seq`; false when the spool cannot read it.
  bool QueueDeltaFrame(uint64_t seq, uint64_t now_ms);
  void RebuildSendQueue();

  const ArenaSmbEngine* engine_;
  Options options_;
  DeltaSpool spool_;
  std::unordered_set<uint64_t> dirty_;
  uint64_t next_seq_ = 1;
  // The first sequence number this process cut; 0 once a hello-ack has
  // settled its deltas against the parent's mark.
  uint64_t own_floor_ = 0;

  State state_ = State::kBackoff;
  UdsFd conn_;
  FrameDecoder decoder_;
  std::vector<uint8_t> outbox_;     // encoded bytes awaiting the kernel
  std::deque<uint64_t> send_queue_; // spooled seqs awaiting framing
  bool close_after_flush_ = false;  // injected torn frame in the outbox

  uint64_t backoff_ms_ = 0;
  uint64_t next_attempt_ms_ = 0;
  uint64_t deadline_ms_ = 0;
  uint64_t send_progress_deadline_ms_ = 0;
  uint64_t delay_until_ms_ = 0;  // repl.frame.delay hold
  uint64_t last_send_ms_ = 0;
  uint64_t highest_sent_seq_ = 0;
  Xoshiro256 jitter_;

  Stats stats_;
};

}  // namespace smb::repl

#endif  // SMBCARD_REPL_CHILD_REPLICATOR_H_
