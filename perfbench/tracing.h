// Host-time spans for the benchmark's traced run, recorded from the
// benchmark's own files around calls into the program's public seams:
//  * each Vfs call and each think/idle op (keypad_perf.cc opens these), and on
//    the fleet each 10-ms virtual slice of its open loop;
//  * every KeyClient call, through TracingKeyClient wrapped around the
//    deployment's real key client;
//  * every StorageBackend read/apply/sync, through TracingBackend wrapped
//    around a journaled backend under the benchmark's own BlockDevice.
// Spans carry the workload op index and the index of their parent span,
// stay in memory, and are written out once at the end.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/blockdev/storage_backend.h"
#include "src/keyservice/key_client.h"

namespace keypad::perf {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t {
  kVfsRead,
  kVfsWrite,
  kVfsMeta,        // create, mkdir, rename, unlink, readdir, stat
  kThink,          // think/idle op: the simulator runs background events
  kKeyCall,        // blocking KeyClient call (pumps the key-tier round trip)
  kKeyAsyncIssue,  // issuing a non-blocking KeyClient call
  kKeyCallback,    // completion callback of a non-blocking KeyClient call
  kStorageRead,
  kStorageApply,
  kStorageSync,
  kFleetSlice,  // one 10-ms virtual slice of the fleet's open loop
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t op = 0;      // Workload op index this span ran under.
  int32_t parent = -1;  // Index of the enclosing span; -1 at top level.
  Layer layer = Layer::kVfsRead;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t reserve) { spans_.reserve(reserve); }

  // Spans are recorded only while enabled (the measured phase); Begin()
  // returns -1 otherwise and End(-1) is a no-op.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(uint32_t op) { op_ = op; }
  int32_t Begin(Layer layer);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time of every span: its duration minus its children's. Returns
  // false if some span's children add up to more than the span itself.
  bool SelfTimes(std::vector<int64_t>* self) const;
  // One line per span: index, op, parent, layer, start, end (ns).
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  bool enabled_ = false;
  uint32_t op_ = 0;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer)
      : tracer_(tracer), index_(tracer->Begin(layer)) {}
  ~SpanScope() { tracer_->End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// Forwards every call to the deployment's key client, inside a span, and
// counts the calls and the keys they hand to the file system.
class TracingKeyClient final : public KeyClient {
 public:
  TracingKeyClient(KeyClient* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  uint64_t calls() const { return calls_; }
  uint64_t keys_obtained() const { return keys_obtained_; }
  const std::set<AuditId>& obtained_ids() const { return obtained_ids_; }

  Result<Bytes> CreateKey(const AuditId& audit_id) override;
  void CreateKeyAsync(const AuditId& audit_id,
                      std::function<void(Result<Bytes>)> done) override;
  Result<Bytes> GetKey(const AuditId& audit_id, AccessOp op) override;
  void GetKeyAsync(const AuditId& audit_id, AccessOp op,
                   std::function<void(Result<Bytes>)> done) override;
  Result<std::vector<std::pair<AuditId, Bytes>>> GetKeys(
      const std::vector<AuditId>& audit_ids) override;
  void GetKeysAsync(
      const std::vector<AuditId>& audit_ids,
      std::function<void(Result<std::vector<std::pair<AuditId, Bytes>>>)>
          done) override;
  Result<MultiGetResult> GetKeysTyped(
      const std::vector<MultiGetItem>& items) override;
  void GetKeysTypedAsync(
      const std::vector<MultiGetItem>& items,
      std::function<void(Result<MultiGetResult>)> done) override;
  Result<GroupFetch> FetchGroup(
      const AuditId& demand_id,
      const std::vector<AuditId>& prefetch_ids) override;
  void FetchGroupAsync(const AuditId& demand_id,
                       const std::vector<AuditId>& prefetch_ids,
                       std::function<void(Result<GroupFetch>)> done) override;
  Status UploadJournal(const std::vector<JournalEntry>& entries) override;
  void UploadJournalAsync(const std::vector<JournalEntry>& entries,
                          std::function<void(Status)> done) override;
  void NoteEvictionAsync(const AuditId& audit_id) override;
  void DestroyKeyAsync(const AuditId& audit_id,
                       std::function<void(Status)> done) override;
  const std::string& device_id() const override {
    return inner_->device_id();
  }

 private:
  void Obtained(const AuditId& id);
  void Obtained(const std::vector<std::pair<AuditId, Bytes>>& keys);
  // Wraps a completion callback so its execution is a span of its own.
  template <typename T>
  std::function<void(T)> Traced(std::function<void(T)> done,
                                std::function<void(const T&)> count);

  KeyClient* inner_;
  Tracer* tracer_;
  uint64_t calls_ = 0;
  uint64_t keys_obtained_ = 0;
  std::set<AuditId> obtained_ids_;
};

// Forwards to the wrapped backend; reads, applied batches and syncs run
// inside spans, and syncs and applied bytes are counted.
class TracingBackend final : public StorageBackend {
 public:
  TracingBackend(std::unique_ptr<StorageBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  uint64_t bytes_applied() const { return bytes_applied_; }
  uint64_t syncs() const { return syncs_; }

  StorageBackendKind kind() const override { return inner_->kind(); }
  Result<Bytes> ReadObject(const ObjectId& id) const override;
  bool HasObject(const ObjectId& id) const override {
    return inner_->HasObject(id);
  }
  std::vector<ObjectId> ListObjects() const override {
    return inner_->ListObjects();
  }
  const Bytes& ReadSuperblock() const override {
    return inner_->ReadSuperblock();
  }
  size_t ObjectCount() const override { return inner_->ObjectCount(); }
  size_t TotalBytes() const override { return inner_->TotalBytes(); }
  Status Apply(std::vector<StorageOp> batch) override;
  Status Sync() override;
  Status Checkpoint() override;
  std::unique_ptr<StorageBackend> Clone() const override {
    return inner_->Clone();
  }
  std::unique_ptr<StorageBackend> RecoverFromCrash(
      RecoveryReport* report) const override {
    return inner_->RecoverFromCrash(report);
  }
  std::vector<StoredObjectInfo> ScanStoredObjects() const override {
    return inner_->ScanStoredObjects();
  }
  Result<Sha256::Digest> StoredObjectTag(const ObjectId& id) const override {
    return inner_->StoredObjectTag(id);
  }
  Status DamageStoredObject(const ObjectId& id, size_t byte_index,
                            uint8_t xor_mask) override {
    return inner_->DamageStoredObject(id, byte_index, xor_mask);
  }
  Status RepairStoredObject(const ObjectId& id, Bytes data) override {
    return inner_->RepairStoredObject(id, std::move(data));
  }

 private:
  std::unique_ptr<StorageBackend> inner_;
  Tracer* tracer_;
  uint64_t bytes_applied_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace keypad::perf

#endif  // PERFBENCH_TRACING_H_
