// ReplicationSink — the parent's half of parent/child replication
// (DESIGN.md §16).
//
// The sink listens on a Unix-domain socket, accepts N child sessions,
// and maintains one shadow replica engine per child. Deltas carry the
// full state of every dirty flow (replacement semantics), so applying a
// delta is an upsert into the child's replica: after a child drains, its
// replica holds exactly the child engine's live flows, and the merged
// view (MergeFrom over replicas in ascending child id) is bit-identical
// to a single-process oracle merge of the child engines themselves —
// the convergence property the chaos suite pins.
//
// Robustness contract:
//   * every frame clears two CRC layers (wire framing) and every delta
//     payload must be an SMBZ1 snapshot whose every record decodes and
//     clears the reachability rules, with no repeated key and the
//     sink's geometry, before any replica row is touched
//     (ArenaSmbEngine::ApplySmbz1) — a torn/corrupt/implausible delivery
//     recycles the connection without poisoning merged state;
//   * per-child strict in-order apply over one applied high-water: a
//     delta at or below it is a duplicate (dropped and re-acked), the
//     next one applies, and one past a gap applies nothing and recycles
//     the connection (the child retransmits in order from the ack);
//   * acks advance only to the CHECKPOINTED high-water: replica state
//     and per-child high-waters persist through a CheckpointStore, so a
//     parent kill + restart loses nothing it ever acked — children
//     retransmit the (unacked) remainder from their spools.
//
// Failpoint exercised here: repl.ack.drop (an ack vanishes in flight;
// the child's spool + cumulative acks repair it).
//
// Single-threaded: PollOnce() pumps accepts, reads, applies, checkpoints
// and acks; the caller owns the loop (CLI) or drives it in lockstep with
// child Ticks (tests).

#ifndef SMBCARD_REPL_REPLICATION_SINK_H_
#define SMBCARD_REPL_REPLICATION_SINK_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/arena_smb_engine.h"
#include "io/checkpoint_store.h"
#include "repl/uds_socket.h"
#include "repl/wire_format.h"

namespace smb::repl {

class ReplicationSink {
 public:
  struct Options {
    std::string socket_path;
    // Geometry every child must match (CanMergeWith).
    ArenaSmbEngine::Config engine_config;
    // Durability root for replica state + acked high-waters. Empty
    // disables persistence (acks then advance with the in-memory apply,
    // and a parent restart starts empty — test/bench use only).
    std::string checkpoint_dir;
    bool checkpoint_sync = false;
    // A child with no frame for this long is reported not-alive.
    uint64_t child_timeout_ms = 2000;
  };

  struct ChildInfo {
    uint64_t child_id = 0;
    bool connected = false;
    bool alive = false;  // heard from within child_timeout_ms
    // Its last session ended with a goodbye (sent once its spool
    // drained); a hello clears it. A child that dropped without one may
    // still hold spooled deltas.
    bool said_goodbye = false;
    uint64_t acked_seq = 0;      // persisted high-water (what we ack)
    uint64_t applied_seq = 0;    // in-memory high-water
    uint64_t deltas_applied = 0;
    uint64_t dup_dropped = 0;
    uint64_t rejected = 0;       // corrupt/implausible deliveries
    uint64_t last_seen_ms = 0;
    size_t replica_flows = 0;
  };

  struct Stats {
    uint64_t frames_received = 0;
    uint64_t deltas_applied = 0;
    uint64_t dup_dropped = 0;
    uint64_t out_of_order = 0;       // deltas past a gap, refused
    uint64_t rejected_frames = 0;    // decoder-poisoning deliveries
    uint64_t rejected_payloads = 0;  // framed fine, not a valid SMBZ1 delta
    uint64_t rejected_hellos = 0;    // geometry mismatch
    uint64_t acks_sent = 0;
    uint64_t acks_dropped = 0;       // repl.ack.drop
    uint64_t conns_accepted = 0;
    uint64_t conns_dropped = 0;
    uint64_t checkpoints_written = 0;
    uint64_t checkpoint_failures = 0;
  };

  explicit ReplicationSink(const Options& options);

  ReplicationSink(const ReplicationSink&) = delete;
  ReplicationSink& operator=(const ReplicationSink&) = delete;

  // Binds the socket; recovery from the checkpoint directory already ran
  // in the constructor.
  bool Listen(std::string* error);

  // One pump cycle: poll (up to timeout_ms), accept, read, apply,
  // checkpoint if anything advanced, ack. Returns the number of frames
  // processed.
  size_t PollOnce(uint64_t now_ms, int timeout_ms);

  // Closes the listener and every connection (children fall back to
  // spool + backoff). The checkpoint keeps everything acked.
  void Close();

  // Fresh engine holding the merge of every child replica, ascending
  // child id — the whole-view read surface (top-K, FlowsOver, snapshots).
  // Point queries go through MergedQuery instead.
  ArenaSmbEngine MergedEngine() const;

  // Merged estimate for one flow, equal bit for bit to
  // MergedEngine().Query(flow) but without building the merged engine:
  // ArenaSmbEngine::QueryMerged folds just this flow across the replicas
  // in ascending child id (one table probe per replica when at most one
  // holds it). Budget caveat: with a memory budget in
  // options.engine_config, MergedEngine() may evict flows while it
  // merges; this answers as if nothing was evicted.
  double MergedQuery(uint64_t flow) const;

  std::vector<ChildInfo> Children(uint64_t now_ms) const;
  // Child `child_id`'s replica (read-only), or null for an unknown child.
  const ArenaSmbEngine* Replica(uint64_t child_id) const;
  size_t NumChildren() const { return children_.size(); }
  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  bool listening() const { return listener_.listening(); }

 private:
  struct ChildState {
    std::unique_ptr<ArenaSmbEngine> replica;
    uint64_t applied_high_water = 0;    // newest delta applied in memory
    uint64_t persisted_high_water = 0;  // newest checkpointed: what we ack
    uint64_t last_seen_ms = 0;
    uint64_t deltas_applied = 0;
    uint64_t dup_dropped = 0;
    uint64_t rejected = 0;
    int conn_index = -1;  // index into conns_, -1 when disconnected
    bool said_goodbye = false;
  };

  struct Conn {
    UdsFd fd;
    FrameDecoder decoder;
    std::vector<uint8_t> outbox;
    uint64_t bound_child = 0;
    bool bound = false;
    bool closing = false;
  };

  // A child's replica with its applied and persisted marks at
  // `high_water`; the one place a ChildState is built.
  ChildState MakeChild(ArenaSmbEngine replica, uint64_t high_water) const;
  ChildState& ChildFor(uint64_t child_id);
  void HandleFrame(size_t conn_index, Frame frame, uint64_t now_ms);
  void SendAck(size_t conn_index, uint64_t child_id, uint64_t high_water,
               FrameType type);
  void DropConn(size_t conn_index);
  void FlushConn(size_t conn_index);
  // Persists every replica + high-water (WriteCheckpoint, when a
  // checkpoint_dir is set); on success advances the persisted marks and
  // acks each one that moved to its connected child.
  bool MaybeCheckpoint();
  bool WriteCheckpoint();
  void RecoverFromCheckpoint();
  void PublishChildTelemetry(uint64_t now_ms);

  Options options_;
  UdsListener listener_;
  std::vector<Conn> conns_;
  std::map<uint64_t, ChildState> children_;
  std::unique_ptr<io::CheckpointStore> checkpoints_;
  bool dirty_since_checkpoint_ = false;
  Stats stats_;
};

}  // namespace smb::repl

#endif  // SMBCARD_REPL_REPLICATION_SINK_H_
