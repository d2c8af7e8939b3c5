#include "perfbench/tracing.h"

#include <cstdio>

namespace keypad::perf {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kVfsRead:
      return "vfs.read";
    case Layer::kVfsWrite:
      return "vfs.write";
    case Layer::kVfsMeta:
      return "vfs.meta";
    case Layer::kThink:
      return "think";
    case Layer::kKeyCall:
      return "key.call";
    case Layer::kKeyAsyncIssue:
      return "key.async_issue";
    case Layer::kKeyCallback:
      return "key.callback";
    case Layer::kStorageRead:
      return "storage.read";
    case Layer::kStorageApply:
      return "storage.apply";
    case Layer::kStorageSync:
      return "storage.sync";
    case Layer::kFleetSlice:
      return "fleet.slice";
  }
  return "?";
}

int32_t Tracer::Begin(Layer layer) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.layer = layer;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans nest strictly (every wrapper is a scope on one thread).
  open_.pop_back();
}

bool Tracer::SelfTimes(std::vector<int64_t>* self) const {
  self->assign(spans_.size(), 0);
  std::vector<int64_t> children(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  bool ok = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    (*self)[i] = spans_[i].end_ns - spans_[i].start_ns - children[i];
    if ((*self)[i] < 0) {
      ok = false;
    }
  }
  return ok;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "index\top\tparent\tlayer\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%u\t%d\t%s\t%lld\t%lld\n", i, s.op, s.parent,
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

// --- TracingKeyClient. -------------------------------------------------------

void TracingKeyClient::Obtained(const AuditId& id) {
  ++keys_obtained_;
  obtained_ids_.insert(id);
}

void TracingKeyClient::Obtained(
    const std::vector<std::pair<AuditId, Bytes>>& keys) {
  for (const auto& [id, key] : keys) {
    Obtained(id);
  }
}

template <typename T>
std::function<void(T)> TracingKeyClient::Traced(
    std::function<void(T)> done, std::function<void(const T&)> count) {
  return [this, done = std::move(done), count = std::move(count)](T result) {
    SpanScope span(tracer_, Layer::kKeyCallback);
    count(result);
    done(std::move(result));
  };
}

Result<Bytes> TracingKeyClient::CreateKey(const AuditId& audit_id) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  Result<Bytes> key = inner_->CreateKey(audit_id);
  if (key.ok()) {
    Obtained(audit_id);
  }
  return key;
}

void TracingKeyClient::CreateKeyAsync(const AuditId& audit_id,
                                      std::function<void(Result<Bytes>)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->CreateKeyAsync(
      audit_id, Traced<Result<Bytes>>(
                    std::move(done), [this, audit_id](const Result<Bytes>& r) {
                      if (r.ok()) {
                        Obtained(audit_id);
                      }
                    }));
}

Result<Bytes> TracingKeyClient::GetKey(const AuditId& audit_id, AccessOp op) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  Result<Bytes> key = inner_->GetKey(audit_id, op);
  if (key.ok()) {
    Obtained(audit_id);
  }
  return key;
}

void TracingKeyClient::GetKeyAsync(const AuditId& audit_id, AccessOp op,
                                   std::function<void(Result<Bytes>)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->GetKeyAsync(
      audit_id, op,
      Traced<Result<Bytes>>(std::move(done),
                            [this, audit_id](const Result<Bytes>& r) {
                              if (r.ok()) {
                                Obtained(audit_id);
                              }
                            }));
}

Result<std::vector<std::pair<AuditId, Bytes>>> TracingKeyClient::GetKeys(
    const std::vector<AuditId>& audit_ids) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  auto keys = inner_->GetKeys(audit_ids);
  if (keys.ok()) {
    Obtained(*keys);
  }
  return keys;
}

void TracingKeyClient::GetKeysAsync(
    const std::vector<AuditId>& audit_ids,
    std::function<void(Result<std::vector<std::pair<AuditId, Bytes>>>)> done) {
  using Keys = Result<std::vector<std::pair<AuditId, Bytes>>>;
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->GetKeysAsync(audit_ids,
                       Traced<Keys>(std::move(done), [this](const Keys& r) {
                         if (r.ok()) {
                           Obtained(*r);
                         }
                       }));
}

Result<KeyClient::MultiGetResult> TracingKeyClient::GetKeysTyped(
    const std::vector<MultiGetItem>& items) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  auto result = inner_->GetKeysTyped(items);
  if (result.ok()) {
    Obtained(result->keys);
  }
  return result;
}

void TracingKeyClient::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items,
    std::function<void(Result<MultiGetResult>)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->GetKeysTypedAsync(
      items, Traced<Result<MultiGetResult>>(
                 std::move(done), [this](const Result<MultiGetResult>& r) {
                   if (r.ok()) {
                     Obtained(r->keys);
                   }
                 }));
}

Result<KeyClient::GroupFetch> TracingKeyClient::FetchGroup(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  auto group = inner_->FetchGroup(demand_id, prefetch_ids);
  if (group.ok()) {
    Obtained(demand_id);
    Obtained(group->prefetched);
  }
  return group;
}

void TracingKeyClient::FetchGroupAsync(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids,
    std::function<void(Result<GroupFetch>)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->FetchGroupAsync(
      demand_id, prefetch_ids,
      Traced<Result<GroupFetch>>(
          std::move(done), [this, demand_id](const Result<GroupFetch>& r) {
            if (r.ok()) {
              Obtained(demand_id);
              Obtained(r->prefetched);
            }
          }));
}

Status TracingKeyClient::UploadJournal(
    const std::vector<JournalEntry>& entries) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyCall);
  return inner_->UploadJournal(entries);
}

void TracingKeyClient::UploadJournalAsync(
    const std::vector<JournalEntry>& entries,
    std::function<void(Status)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->UploadJournalAsync(
      entries, Traced<Status>(std::move(done), [](const Status&) {}));
}

void TracingKeyClient::NoteEvictionAsync(const AuditId& audit_id) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->NoteEvictionAsync(audit_id);
}

void TracingKeyClient::DestroyKeyAsync(const AuditId& audit_id,
                                       std::function<void(Status)> done) {
  ++calls_;
  SpanScope span(tracer_, Layer::kKeyAsyncIssue);
  inner_->DestroyKeyAsync(
      audit_id, Traced<Status>(std::move(done), [](const Status&) {}));
}

// --- TracingBackend. ---------------------------------------------------------

Result<Bytes> TracingBackend::ReadObject(const ObjectId& id) const {
  SpanScope span(tracer_, Layer::kStorageRead);
  return inner_->ReadObject(id);
}

Status TracingBackend::Apply(std::vector<StorageOp> batch) {
  for (const StorageOp& op : batch) {
    bytes_applied_ += op.data.size();
  }
  SpanScope span(tracer_, Layer::kStorageApply);
  return inner_->Apply(std::move(batch));
}

Status TracingBackend::Sync() {
  ++syncs_;
  SpanScope span(tracer_, Layer::kStorageSync);
  return inner_->Sync();
}

Status TracingBackend::Checkpoint() {
  ++syncs_;
  SpanScope span(tracer_, Layer::kStorageSync);
  return inner_->Checkpoint();
}

}  // namespace keypad::perf
