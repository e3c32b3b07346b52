// Fusion pass + superop interpreter. See fusion.h for the design contract.
//
// Layout of this file:
//   1. Kill switch (JANUS_FUSION).
//   2. Region formation and the plan rewrite.
//   3. Runtime specialization (FusedSpec): dtype/shape propagation through
//      the elementwise table's dtype rules, scratch layout, and the
//      per-region memo.
//   4. Execution: block interpreter (fused path) and per-member fallback.
#include "runtime/fusion.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "tensor/shape.h"

namespace janus {

namespace fusion {
namespace {

bool InitialEnabled() {
  const char* env = std::getenv("JANUS_FUSION");
  if (env == nullptr) return true;
  const std::string_view v(env);
  return !(v == "0" || v == "false" || v == "off");
}

std::atomic<bool> g_enabled{InitialEnabled()};

}  // namespace

bool GloballyEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetGloballyEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace fusion

namespace {

using Edge = ExecutionPlan::Edge;
using Endpoint = ExecutionPlan::Endpoint;
using OpKind = ExecutionPlan::OpKind;
using PlanNode = ExecutionPlan::PlanNode;

using Reduction = FusedRegionPlan::Reduction;

// ---------------------------------------------------------------------------
// Region formation.
// ---------------------------------------------------------------------------

// How one plan node may take part in a region.
struct Candidate {
  const ops::ElementwiseOp* op = nullptr;  // elementwise: member or root
  Reduction reduction = Reduction::kNone;  // reduction: root only
  bool has_control = false;  // any control producer or consumer
  bool is_protected = false; // feeds a fetch slot
};

Candidate ClassifyCandidate(const PlanNode& entry) {
  Candidate cand;
  cand.has_control =
      !entry.control_producers.empty() || !entry.control_edges.empty();
  if (entry.kind != OpKind::kKernel) return cand;
  const Node* node = entry.node;
  if (node->num_outputs() != 1) return cand;
  if (const ops::ElementwiseOp* op = ops::FindElementwiseOp(node->op())) {
    if (node->num_inputs() == op->arity) cand.op = op;
    return cand;
  }
  const bool sum = node->op() == "ReduceSum";
  if ((sum || node->op() == "ReduceMean") && node->num_inputs() == 1 &&
      node->HasAttr("axes") && node->HasAttr("keep_dims")) {
    cand.reduction = sum ? Reduction::kSum : Reduction::kMean;
  }
  return cand;
}

// Greedy maximal-region collection. Roots are claimed in reverse schedule
// order (so the node nearest the sink anchors the longest chain) and regions
// grow producer-ward to a fixpoint: a producer joins only when it is fusable
// elementwise, unclaimed, not fetch-protected, free of control edges, and
// EVERY data consumer is already inside the region — interior values with
// outside consumers (or fetch protection) break regions, because interiors
// are never materialized. Roots are exempt from the consumer/protection
// rules: the region output is materialized exactly like the root's output
// was. Regions of fewer than two members are discarded.
std::vector<std::vector<int>> CollectRegions(
    const std::vector<PlanNode>& nodes, const std::vector<Candidate>& cand) {
  const int n = static_cast<int>(cand.size());
  std::vector<std::vector<int>> regions;
  std::vector<char> claimed(cand.size(), 0);
  std::vector<char> in_region(cand.size(), 0);
  for (int root = n - 1; root >= 0; --root) {
    const auto ur = static_cast<std::size_t>(root);
    if (claimed[ur]) continue;
    if (cand[ur].op == nullptr && cand[ur].reduction == Reduction::kNone) {
      continue;
    }
    std::vector<int> members{root};
    in_region[ur] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t mi = 0; mi < members.size(); ++mi) {
        for (const Endpoint& input :
             nodes[static_cast<std::size_t>(members[mi])].inputs) {
          const auto up = static_cast<std::size_t>(input.producer);
          if (input.slot != 0 || in_region[up]) continue;
          const Candidate& pc = cand[up];
          if (pc.op == nullptr || pc.has_control || pc.is_protected ||
              claimed[up]) {
            continue;
          }
          // Elementwise producers have exactly one output slot.
          bool all_inside = true;
          for (const Edge& edge : nodes[up].out_edges[0]) {
            if (!in_region[static_cast<std::size_t>(edge.consumer)]) {
              all_inside = false;
              break;
            }
          }
          if (!all_inside) continue;
          in_region[up] = 1;
          members.push_back(input.producer);
          changed = true;
        }
      }
    }
    for (const int m : members) in_region[static_cast<std::size_t>(m)] = 0;
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    for (const int m : members) claimed[static_cast<std::size_t>(m)] = 1;
    regions.push_back(std::move(members));
  }
  return regions;
}

struct RegionRewrite {
  std::shared_ptr<FusedRegionPlan> plan;
  std::vector<Endpoint> externals;  // old coordinates, in value-id order
  int root = -1;                    // old dense index
};

// Builds the register program: external (producer, slot) pairs dedupe onto
// value ids [0, E) in discovery order, then each member defines E + ordinal.
RegionRewrite BuildRegionRewrite(const std::vector<int>& members,
                                 const std::vector<PlanNode>& nodes,
                                 const std::vector<Candidate>& cand) {
  RegionRewrite rw;
  rw.root = members.back();
  rw.plan = std::make_shared<FusedRegionPlan>();
  FusedRegionPlan& plan = *rw.plan;

  std::unordered_map<int, int> member_ordinal;
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_ordinal[members[i]] = static_cast<int>(i);
  }
  std::map<std::pair<int, int>, int> external_ids;
  for (const int m : members) {
    for (const Endpoint& input : nodes[static_cast<std::size_t>(m)].inputs) {
      if (member_ordinal.find(input.producer) != member_ordinal.end()) continue;
      const auto key = std::make_pair(input.producer, input.slot);
      if (external_ids.find(key) == external_ids.end()) {
        external_ids[key] = static_cast<int>(rw.externals.size());
        rw.externals.push_back(input);
      }
    }
  }
  const int num_externals = static_cast<int>(rw.externals.size());
  plan.num_externals = num_externals;
  plan.num_values = num_externals + static_cast<int>(members.size());

  for (std::size_t i = 0; i < members.size(); ++i) {
    const PlanNode& entry = nodes[static_cast<std::size_t>(members[i])];
    const Candidate& c = cand[static_cast<std::size_t>(members[i])];
    FusedRegionPlan::Member member;
    member.node = entry.node;
    member.kernel = entry.kernel;
    member.op = c.op;
    member.reduction = c.reduction;
    member.value_id = num_externals + static_cast<int>(i);
    int* slots[2] = {&member.a, &member.b};
    int slot_index = 0;
    for (const Endpoint& input : entry.inputs) {
      int id;
      const auto mit = member_ordinal.find(input.producer);
      if (mit != member_ordinal.end()) {
        id = num_externals + mit->second;
      } else {
        id = external_ids.at(std::make_pair(input.producer, input.slot));
      }
      *slots[slot_index++] = id;
    }
    if (c.reduction != Reduction::kNone) {
      plan.has_reduction = true;
      for (const std::int64_t axis : entry.node->GetIntListAttr("axes")) {
        member.axes.push_back(static_cast<int>(axis));
      }
      member.keep_dims = entry.node->GetBoolAttr("keep_dims");
    }
    plan.members.push_back(std::move(member));
  }
  return rw;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan rewrite.
// ---------------------------------------------------------------------------

int FusePlan(std::vector<PlanNode>& nodes, std::vector<Endpoint>& fetch_slots,
             std::unordered_map<const Node*, int>& index,
             std::vector<std::shared_ptr<const FusedRegionPlan>>& regions) {
  const std::size_t n = nodes.size();
  std::vector<Candidate> cand(n);
  for (std::size_t i = 0; i < n; ++i) cand[i] = ClassifyCandidate(nodes[i]);
  for (const Endpoint& fetch : fetch_slots) {
    cand[static_cast<std::size_t>(fetch.producer)].is_protected = true;
  }

  const std::vector<std::vector<int>> found = CollectRegions(nodes, cand);
  if (found.empty()) return 0;

  std::vector<RegionRewrite> rewrites;
  rewrites.reserve(found.size());
  // Old dense index -> the region it belongs to, and, for interiors, the
  // region root that replaces them.
  std::vector<int> region_of(n, -1);
  std::vector<int> root_of(n, -1);
  for (const std::vector<int>& members : found) {
    rewrites.push_back(BuildRegionRewrite(members, nodes, cand));
    for (const int m : members) {
      region_of[static_cast<std::size_t>(m)] =
          static_cast<int>(rewrites.size()) - 1;
      if (m != rewrites.back().root) {
        root_of[static_cast<std::size_t>(m)] = rewrites.back().root;
      }
    }
  }

  // Rewire on the old array first: each external (producer, slot) loses its
  // edges into region members and gains exactly ONE edge into the region at
  // the external's value-id slot (a value consumed by k members arrives,
  // and counts down, once). The root's node becomes the region node; it
  // keeps the root's out-edges and control edges.
  for (std::size_t r = 0; r < rewrites.size(); ++r) {
    const RegionRewrite& rw = rewrites[r];
    for (std::size_t e = 0; e < rw.externals.size(); ++e) {
      const Endpoint& ext = rw.externals[e];
      auto& edges = nodes[static_cast<std::size_t>(ext.producer)]
                        .out_edges[static_cast<std::size_t>(ext.slot)];
      std::erase_if(edges, [&](const Edge& edge) {
        return region_of[static_cast<std::size_t>(edge.consumer)] ==
               static_cast<int>(r);
      });
      edges.push_back({rw.root, static_cast<int>(e)});
    }
    PlanNode& root = nodes[static_cast<std::size_t>(rw.root)];
    root.kind = OpKind::kFusedRegion;
    root.kernel = nullptr;
    root.fused = rw.plan.get();
    root.inputs = rw.externals;
    root.in_edges =
        static_cast<int>(root.inputs.size() + root.control_producers.size());
  }

  // Drop the interiors. Nothing points at an interior any more except the
  // node -> index map, which resolves it to its region (IndexOf).
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] < 0) remap[i] = next++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] >= 0) {
      remap[i] = remap[static_cast<std::size_t>(root_of[i])];
    }
  }
  const auto remapped = [&remap](int old) {
    return remap[static_cast<std::size_t>(old)];
  };
  std::vector<PlanNode> out;
  out.reserve(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] >= 0) continue;
    PlanNode entry = std::move(nodes[i]);
    for (Endpoint& input : entry.inputs) {
      input.producer = remapped(input.producer);
    }
    for (int& producer : entry.control_producers) {
      producer = remapped(producer);
    }
    for (auto& slot_edges : entry.out_edges) {
      for (Edge& edge : slot_edges) edge.consumer = remapped(edge.consumer);
    }
    for (int& consumer : entry.control_edges) consumer = remapped(consumer);
    out.push_back(std::move(entry));
  }
  for (auto& [node, dense] : index) dense = remapped(dense);
  for (Endpoint& slot : fetch_slots) slot.producer = remapped(slot.producer);
  nodes = std::move(out);
  for (RegionRewrite& rw : rewrites) regions.push_back(std::move(rw.plan));
  return static_cast<int>(rewrites.size());
}

// ---------------------------------------------------------------------------
// Runtime specialization.
// ---------------------------------------------------------------------------

namespace internal {
// One block instruction: the member's typed same-index loop over value ids
// (a unary loop ignores `b`).
struct BlockInstr {
  void (*loop)(const void* a, const void* b, void* out,
               std::int64_t count) = nullptr;
  int out = -1;
  int a = -1;
  int b = -1;
};
}  // namespace internal

// The specialized program: what the block interpreter executes for one set
// of external dtypes and shapes.
struct FusedSpec {
  bool use_fallback = false;
  struct Ext {
    DType dtype = DType::kFloat32;
    Shape shape;
    std::size_t elem_size = 0;
    bool uniform = false;      // single element, splatted once per run
    std::size_t scratch = 0;   // splat area offset (uniform only)
  };
  std::vector<Ext> externals;
  std::vector<internal::BlockInstr> instrs;
  // Per value id: offset into the thread-local scratch arena, or kNoScratch
  // for values bound per block (full externals, the materialized root).
  std::vector<std::size_t> value_scratch;
  std::size_t scratch_bytes = 0;
  std::int64_t n = 0;  // iteration count (elements of the elementwise root)
  Shape iter_shape;
  int root_value = -1;  // elementwise root value id
  DType root_dtype = DType::kFloat32;
  std::size_t root_elem_size = 0;
  bool has_reduction = false;
  bool reduce_mean = false;
  Shape out_shape;  // == iter_shape unless has_reduction
  ops::ReduceIndex reduce_index;  // reduction epilogue only
  float mean_scale = 1.0f;

  static constexpr std::size_t kNoScratch =
      std::numeric_limits<std::size_t>::max();
};

namespace internal {
namespace {

constexpr std::int64_t kBlockElements = 1024;

// ---- dtype/shape propagation through the elementwise table ----

struct ValueInfo {
  DType dtype = DType::kFloat32;
  Shape shape;
};

bool TryBroadcast(const Shape& a, const Shape& b, Shape* out) {
  try {
    *out = BroadcastShapes(a, b);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// Fills `spec` for the region against the concrete external dtypes/shapes.
// Returns false when any member's dtype/shape combination is not a plain
// same-index loop of its table entry (or would throw); the caller then
// marks the spec fallback-only and the per-member path reproduces the exact
// unfused behaviour, including errors.
bool PopulateSpec(const FusedRegionPlan& region, std::span<const Tensor> inputs,
                  FusedSpec& spec) {
  const int num_externals = region.num_externals;
  spec.externals.resize(static_cast<std::size_t>(num_externals));
  std::vector<ValueInfo> values(static_cast<std::size_t>(region.num_values));
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    ext.dtype = inputs[static_cast<std::size_t>(i)].dtype();
    ext.shape = inputs[static_cast<std::size_t>(i)].shape();
    ext.elem_size = DTypeSize(ext.dtype);
    values[static_cast<std::size_t>(i)] = {ext.dtype, ext.shape};
  }

  for (const FusedRegionPlan::Member& m : region.members) {
    const ValueInfo& a = values[static_cast<std::size_t>(m.a)];
    if (m.reduction != Reduction::kNone) {
      if (a.dtype != DType::kFloat32) return false;
      std::vector<int> axes;
      try {
        axes = ops::NormalizeAxes(m.axes, a.shape.rank());
      } catch (const Error&) {
        return false;  // the unfused kernel throws
      }
      spec.has_reduction = true;
      spec.reduce_mean = m.reduction == Reduction::kMean;
      spec.iter_shape = a.shape;
      spec.root_value = m.a;
      spec.root_dtype = DType::kFloat32;
      spec.out_shape = ops::ReducedShape(a.shape, axes, m.keep_dims);
      spec.reduce_index = ops::ReduceIndex(a.shape, axes);
      std::int64_t count = 1;
      for (const int axis : axes) count *= a.shape.dim(axis);
      spec.mean_scale = 1.0f / static_cast<float>(count);
      values[static_cast<std::size_t>(m.value_id)] = {DType::kFloat32,
                                                      spec.out_shape};
      continue;  // epilogue, not a block instruction
    }
    const ops::ElementwiseOp::Typed& typed = m.op->For(a.dtype);
    if (typed.same_index == nullptr || typed.may_throw) return false;
    Shape shape = a.shape;
    if (m.b >= 0) {
      const ValueInfo& b = values[static_cast<std::size_t>(m.b)];
      if (b.dtype != a.dtype) return false;
      if (m.op->equal_shapes ? b.shape != a.shape
                             : !TryBroadcast(a.shape, b.shape, &shape)) {
        return false;
      }
    }
    values[static_cast<std::size_t>(m.value_id)] = {typed.result, shape};
    spec.instrs.push_back(
        {typed.same_index, m.value_id, m.a, m.b >= 0 ? m.b : m.a});
  }

  if (!spec.has_reduction) {
    spec.root_value = region.members.back().value_id;
    const ValueInfo& root = values[static_cast<std::size_t>(spec.root_value)];
    spec.iter_shape = root.shape;
    spec.out_shape = root.shape;
    spec.root_dtype = root.dtype;
  }
  spec.root_elem_size = DTypeSize(spec.root_dtype);
  spec.n = spec.iter_shape.num_elements();

  // External classification: full (element count == iteration count, which
  // with broadcast-compatible shapes implies an identity linear layout) or
  // uniform (single element, splatted). Anything else — a genuine partial
  // broadcast like (8,1) against (8,8) — is not same-index iterable.
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    const std::int64_t count = ext.shape.num_elements();
    if (count == spec.n) {
      ext.uniform = false;
    } else if (count == 1) {
      ext.uniform = true;
    } else {
      return false;
    }
  }
  // Interior values must also be same-index iterable: a partial-broadcast
  // interior (count != n and != 1) cannot live in block scratch. Uniform
  // interiors are simply computed block-wide from splatted operands, which
  // preserves per-element bit-exactness.
  for (const FusedRegionPlan::Member& m : region.members) {
    if (spec.has_reduction && m.value_id == region.members.back().value_id) {
      continue;  // reduction epilogue value is the region output itself
    }
    const std::int64_t count =
        values[static_cast<std::size_t>(m.value_id)].shape.num_elements();
    if (count != spec.n && count != 1) return false;
  }

  // Scratch layout: 64-byte-aligned slabs for uniform-external splats and
  // every interior value; the materialized root (non-reduction) writes the
  // output tensor directly and full externals bind per block.
  spec.value_scratch.assign(static_cast<std::size_t>(region.num_values),
                            FusedSpec::kNoScratch);
  std::size_t offset = 0;
  const auto allocate = [&offset](std::size_t bytes) {
    const std::size_t at = offset;
    offset += (bytes + 63) & ~static_cast<std::size_t>(63);
    return at;
  };
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    if (!ext.uniform) continue;
    ext.scratch = allocate(static_cast<std::size_t>(kBlockElements) *
                           ext.elem_size);
    spec.value_scratch[static_cast<std::size_t>(i)] = ext.scratch;
  }
  for (const FusedRegionPlan::Member& m : region.members) {
    if (spec.has_reduction && m.value_id == region.members.back().value_id) {
      continue;
    }
    if (!spec.has_reduction && m.value_id == spec.root_value) continue;
    const DType dtype = values[static_cast<std::size_t>(m.value_id)].dtype;
    spec.value_scratch[static_cast<std::size_t>(m.value_id)] =
        allocate(static_cast<std::size_t>(kBlockElements) * DTypeSize(dtype));
  }
  spec.scratch_bytes = offset;
  return true;
}

// ---- per-region memo ----

bool SpecMatches(const FusedSpec& spec, std::span<const Tensor> inputs) {
  if (spec.externals.size() != inputs.size()) return false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (spec.externals[i].dtype != inputs[i].dtype() ||
        spec.externals[i].shape != inputs[i].shape()) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const FusedSpec> GetSpec(const FusedRegionPlan& region,
                                         std::span<const Tensor> inputs) {
  {
    const MutexLock lock(region.memo_mu);
    if (region.memo != nullptr && SpecMatches(*region.memo, inputs)) {
      return region.memo;
    }
  }
  // Memo miss: the region is running its first shape, or the graph was
  // despecialized and the runtime shapes changed.
  auto spec = std::make_shared<FusedSpec>();
  if (!PopulateSpec(region, inputs, *spec)) spec->use_fallback = true;
  {
    const MutexLock lock(region.memo_mu);
    region.memo = spec;
  }
  return spec;
}

// ---- execution helpers ----

// Fills the `count` block slots a run reads with a uniform external's one
// element.
void SplatUniform(const Tensor& t, char* dst, std::int64_t count) {
  switch (t.dtype()) {
    case DType::kFloat32:
      std::fill_n(reinterpret_cast<float*>(dst), count, t.data<float>()[0]);
      break;
    case DType::kInt64:
      std::fill_n(reinterpret_cast<std::int64_t*>(dst), count,
                  t.data<std::int64_t>()[0]);
      break;
    case DType::kBool:
      std::fill_n(reinterpret_cast<std::uint8_t*>(dst), count,
                  t.data<std::uint8_t>()[0]);
      break;
  }
}

// Per-member fallback: executes every member through its resolved kernel
// over a local value table — identical dispatch and error annotation as
// unfused execution.
void RunFallback(RunContext& run, const FusedRegionPlan& region,
                 std::span<const Tensor> inputs, std::vector<Tensor>& outputs) {
  std::vector<Tensor> table(static_cast<std::size_t>(region.num_values));
  for (int i = 0; i < region.num_externals; ++i) {
    table[static_cast<std::size_t>(i)] = inputs[static_cast<std::size_t>(i)];
  }
  for (const FusedRegionPlan::Member& m : region.members) {
    std::vector<Tensor> operands;
    operands.reserve(2);
    operands.push_back(table[static_cast<std::size_t>(m.a)]);
    if (m.b >= 0) operands.push_back(table[static_cast<std::size_t>(m.b)]);
    std::vector<Tensor> outs;
    ExecuteKernel(run, *m.node, *m.kernel, operands, outs,
                  /*allow_in_place=*/false);
    table[static_cast<std::size_t>(m.value_id)] = std::move(outs.at(0));
  }
  outputs.assign(
      1, std::move(table[static_cast<std::size_t>(
             region.members.back().value_id)]));
}

}  // namespace

void ExecuteFusedRegion(RunContext& run, const FusedRegionPlan& region,
                        std::span<const Tensor> inputs,
                        std::vector<Tensor>& outputs, bool allow_in_place) {
  const std::shared_ptr<const FusedSpec> spec = GetSpec(region, inputs);
  if (spec->use_fallback) {
    RunFallback(run, region, inputs, outputs);
    return;
  }

  // Region output. Non-reduction regions may steal a dying full external's
  // buffer: block b's writes land only on indices every instruction has
  // already consumed (instructions run whole-block, the root runs last), so
  // the same-index safety argument of per-op in-place reuse carries over.
  Tensor out;
  {
    const InPlaceScope scope(allow_in_place && !spec->has_reduction);
    if (spec->has_reduction) {
      out = Tensor::Full(spec->out_shape, 0.0f);  // ReduceImpl's init
    } else {
      std::vector<const Tensor*> candidates;
      candidates.reserve(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!spec->externals[i].uniform) candidates.push_back(&inputs[i]);
      }
      out = Tensor::OutputBuffer(candidates, spec->root_dtype,
                                 spec->out_shape);
    }
  }

  thread_local std::vector<char> scratch;
  if (scratch.size() < spec->scratch_bytes) scratch.resize(spec->scratch_bytes);
  char* const scratch_base = scratch.data();

  std::vector<char*> vals(static_cast<std::size_t>(region.num_values),
                          nullptr);
  struct FullExt {
    int value;
    const char* base;
    std::size_t elem_size;
  };
  std::vector<FullExt> fulls;
  fulls.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& ext = spec->externals[i];
    if (ext.uniform) {
      char* dst = scratch_base + ext.scratch;
      SplatUniform(inputs[i], dst, std::min(spec->n, kBlockElements));
      vals[i] = dst;
    } else {
      fulls.push_back({static_cast<int>(i),
                       static_cast<const char*>(
                           ops::ElementData(inputs[i], inputs[i].dtype())),
                       ext.elem_size});
    }
  }
  for (int v = region.num_externals; v < region.num_values; ++v) {
    const std::size_t at = spec->value_scratch[static_cast<std::size_t>(v)];
    if (at != FusedSpec::kNoScratch) vals[static_cast<std::size_t>(v)] =
        scratch_base + at;
  }

  char* const out_base = static_cast<char*>(ops::MutableElementData(out));
  float* const red_out =
      spec->has_reduction ? reinterpret_cast<float*>(out_base) : nullptr;
  const std::int64_t n = spec->n;
  for (std::int64_t base = 0; base < n; base += kBlockElements) {
    const std::int64_t count = std::min<std::int64_t>(kBlockElements, n - base);
    for (const FullExt& full : fulls) {
      vals[static_cast<std::size_t>(full.value)] = const_cast<char*>(
          full.base + static_cast<std::size_t>(base) * full.elem_size);
    }
    if (!spec->has_reduction) {
      vals[static_cast<std::size_t>(spec->root_value)] =
          out_base + static_cast<std::size_t>(base) * spec->root_elem_size;
    }
    for (const BlockInstr& instr : spec->instrs) {
      instr.loop(vals[static_cast<std::size_t>(instr.a)],
                 vals[static_cast<std::size_t>(instr.b)],
                 vals[static_cast<std::size_t>(instr.out)], count);
    }
    if (spec->has_reduction) {
      spec->reduce_index.Accumulate(
          red_out,
          reinterpret_cast<const float*>(
              vals[static_cast<std::size_t>(spec->root_value)]),
          base, count, [](float acc, float v) { return acc + v; });
    }
  }
  if (spec->reduce_mean) {
    // ReduceMean = Mul(sum, 1/count): same expression, same rounding.
    const std::int64_t out_n = spec->out_shape.num_elements();
    for (std::int64_t i = 0; i < out_n; ++i) {
      red_out[static_cast<std::size_t>(i)] =
          red_out[static_cast<std::size_t>(i)] * spec->mean_scale;
    }
  }

  outputs.assign(1, std::move(out));
  const auto member_count =
      static_cast<std::int64_t>(region.members.size());
  run.ops_executed.fetch_add(member_count, std::memory_order_relaxed);
  run.fused_regions.fetch_add(1, std::memory_order_relaxed);
  run.fused_ops.fetch_add(member_count, std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace janus
