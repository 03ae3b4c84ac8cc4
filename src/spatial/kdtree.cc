#include "src/spatial/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace pnn {

// Tie contract (the cross-width identity rule): every query that returns a
// single winner resolves equal-distance (equal-score) candidates to the
// LOWEST point index — the pnn::MinIndex rule the SIMD argmin kernels
// already pin within a leaf. Two pieces make it hold across the whole
// tree at any leaf width:
//   * both constructors sort each leaf's order_ range ascending, so the
//     kernels' first-position tie IS the lowest index within a leaf, and
//   * the traversals never prune a node whose lower bound equals the
//     current best (strict >) and break cross-leaf ties by index.
// With that, Nearest/MinAdditivelyWeighted winners and the
// Incremental emission order are pure functions of the point set —
// width-8 and width-64 trees answer bit-identically
// (tests/kd_width_test.cc).

namespace {
// Stack-buffer chunk for leaf distance scans. Leaves hold at most
// KdBuildOptions::leaf_size points (adoption now validates the leaf
// partition, so adopted trees honor their build's bound too), but the
// width is a runtime option, so the scan loops chunk rather than assume a
// compile-time bound. 128 covers every swept width in one pass.
constexpr int kScanChunk = 128;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Node count of the subtree over n points. The split point of a range
// [begin, begin + n) is begin + n/2 regardless of begin, so the subtree
// shape — and with it every preorder node id — is a pure function of the
// subtree sizes and the leaf capacity. This is what lets the parallel
// build place each subtree's nodes into a precomputed id range with no
// cross-task coordination.
int SubtreeNodes(int n, int leaf_size) {
  if (n <= leaf_size) return 1;
  int left = n / 2;
  return 1 + SubtreeNodes(left, leaf_size) + SubtreeNodes(n - left, leaf_size);
}
}  // namespace

void KdTree::BuildScanArrays() {
  size_t n = order_.size();
  sx_.resize(n);
  sy_.resize(n);
  sw_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int idx = order_[i];
    sx_[i] = points_[idx].x;
    sy_[i] = points_[idx].y;
    sw_[i] = weights_[idx];
  }
}

void KdTree::ScanDists(int first, int cnt, Point2 q, double* out) const {
  if (metric_ == Metric::kEuclidean) {
    // Bit-identical to Distance(q, p): sqrt(dx^2 + dy^2) (point2.h) is
    // exactly the kernel's per-element contract.
    simd::DistScan(sx_.data() + first, sy_.data() + first,
                   static_cast<size_t>(cnt), q.x, q.y, out);
    return;
  }
  for (int k = 0; k < cnt; ++k) {
    out[k] = std::max(std::abs(sx_[first + k] - q.x),
                      std::abs(sy_[first + k] - q.y));
  }
}

double KdTree::BoxDist(const Box2& box, Point2 p) const {
  if (metric_ == Metric::kChebyshev) return box.ChebyshevDistanceTo(p);
  return std::sqrt(box.SquaredDistanceTo(p));
}

KdTree::KdTree(std::vector<Point2> points, std::vector<double> weights, Metric metric,
               const BuildOptions& build)
    : metric_(metric), points_(std::move(points)), weights_(std::move(weights)) {
  if (weights_.empty()) weights_.assign(points_.size(), 0.0);
  PNN_CHECK(weights_.size() == points_.size());
  PNN_CHECK_MSG(build.leaf_size >= 1, "leaf_size must be >= 1");
  order_.resize(points_.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (!points_.empty()) {
    int n = static_cast<int>(points_.size());
    // Preallocating against the precomputed node count lets BuildRange
    // write each subtree's nodes into its own id range — no push_back, no
    // shared cursor, hence no cross-task ordering effects.
    nodes_.resize(static_cast<size_t>(SubtreeNodes(n, build.leaf_size)));
    root_ = 0;
    BuildRange(0, n, root_, build);
  }
  for (const Node& node : nodes_) {
    if (node.left < 0) leaf_width_ = std::max(leaf_width_, node.end - node.begin);
  }
  BuildScanArrays();
}

KdTree::KdTree(std::vector<Point2> points, std::vector<double> weights, Metric metric,
               std::vector<int> order, std::vector<Node> nodes, int root)
    : metric_(metric),
      points_(std::move(points)),
      weights_(std::move(weights)),
      order_(std::move(order)),
      nodes_(std::move(nodes)),
      root_(root) {
  // O(n) validation: bounds checks (exactly what later array accesses
  // index with) plus the leaf-partition invariant the scan loops rely on —
  // leaves must tile [0, n) contiguously and order_ must be a permutation.
  // The store's checksum covers bit-rot; this catches structurally corrupt
  // segments (overlapping or gapped leaves) before a query walks them. A
  // fully structural validation would cost as much as the build this
  // constructor exists to skip.
  int n = static_cast<int>(points_.size());
  PNN_CHECK_MSG(weights_.size() == points_.size(), "weights must parallel points");
  PNN_CHECK_MSG(order_.size() == points_.size(), "order must parallel points");
  if (n == 0) {
    PNN_CHECK_MSG(root_ == -1 && nodes_.empty(), "empty tree must have no nodes");
    return;
  }
  int node_count = static_cast<int>(nodes_.size());
  PNN_CHECK_MSG(root_ >= 0 && root_ < node_count, "adopted root out of range");
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (int idx : order_) {
    PNN_CHECK_MSG(idx >= 0 && idx < n, "adopted order entry out of range");
    PNN_CHECK_MSG(!seen[idx], "adopted order is not a permutation");
    seen[idx] = 1;
  }
  std::vector<std::pair<int, int>> leaves;
  for (const Node& node : nodes_) {
    PNN_CHECK_MSG(node.left >= -1 && node.left < node_count &&
                      node.right >= -1 && node.right < node_count,
                  "adopted node child out of range");
    PNN_CHECK_MSG((node.left < 0) == (node.right < 0),
                  "adopted node must be leaf or have both children");
    PNN_CHECK_MSG(node.begin >= 0 && node.begin <= node.end && node.end <= n,
                  "adopted node range out of bounds");
    if (node.left < 0) leaves.emplace_back(node.begin, node.end);
  }
  std::sort(leaves.begin(), leaves.end());
  int cursor = 0;
  for (const auto& range : leaves) {
    PNN_CHECK_MSG(range.first == cursor, "adopted leaves must tile [0, n)");
    PNN_CHECK_MSG(range.second > range.first, "adopted leaf must be non-empty");
    cursor = range.second;
    leaf_width_ = std::max(leaf_width_, range.second - range.first);
  }
  PNN_CHECK_MSG(cursor == n, "adopted leaves must cover all points");
  // Tie contract: adopted leaves get the same ascending-index order the
  // building constructor produces, so adopted and fresh trees of the same
  // width stay structurally identical (and pre-sort segments upgrade
  // transparently — the next checkpoint re-serializes the sorted order).
  for (Node& node : nodes_) {
    if (node.left < 0) {
      std::sort(order_.begin() + node.begin, order_.begin() + node.end);
    }
  }
  // Derived on load, not serialized: recovered segments keep their
  // pre-refactor format and still get SoA scan buffers.
  BuildScanArrays();
}

void KdTree::BuildRange(int begin, int end, int id, const BuildOptions& build) {
  Node node;
  node.begin = begin;
  node.end = end;
  for (int i = begin; i < end; ++i) {
    node.box.Expand(points_[order_[i]]);
  }
  node.min_w = kInf;
  node.max_w = -kInf;
  for (int i = begin; i < end; ++i) {
    node.min_w = std::min(node.min_w, weights_[order_[i]]);
    node.max_w = std::max(node.max_w, weights_[order_[i]]);
  }
  int n = end - begin;
  if (n > build.leaf_size) {
    bool split_x = node.box.Width() >= node.box.Height();
    int mid = (begin + end) / 2;
    // The partition runs before the children fork, on this task's own
    // disjoint range — every root-to-leaf call sequence therefore sees
    // exactly the element order the serial build saw.
    std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                     [&](int a, int b) {
                       return split_x ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                     });
    node.left = id + 1;  // Preorder: left subtree follows its parent.
    node.right = id + 1 + SubtreeNodes(mid - begin, build.leaf_size);
    nodes_[id] = node;
    if (build.pool != nullptr && n > build.parallel_cutoff) {
      int left_id = node.left, right_id = node.right;
      build.pool->ParallelFor(2, [&](size_t child) {
        if (child == 0) {
          BuildRange(begin, mid, left_id, build);
        } else {
          BuildRange(mid, end, right_id, build);
        }
      });
    } else {
      BuildRange(begin, mid, node.left, build);
      BuildRange(mid, end, node.right, build);
    }
  } else {
    // Tie contract: leaves hold ascending point indices, so the argmin
    // kernels' first-position tie is the lowest index within the leaf.
    std::sort(order_.begin() + begin, order_.begin() + end);
    nodes_[id] = node;
  }
}

bool KdTree::SameStructure(const KdTree& other) const {
  if (metric_ != other.metric_ || root_ != other.root_ ||
      points_.size() != other.points_.size() || order_ != other.order_ ||
      weights_ != other.weights_ || nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].x != other.points_[i].x || points_[i].y != other.points_[i].y) {
      return false;
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& a = nodes_[i];
    const Node& b = other.nodes_[i];
    if (a.left != b.left || a.right != b.right || a.begin != b.begin ||
        a.end != b.end || a.min_w != b.min_w || a.max_w != b.max_w ||
        a.box.xmin != b.box.xmin || a.box.ymin != b.box.ymin ||
        a.box.xmax != b.box.xmax || a.box.ymax != b.box.ymax) {
      return false;
    }
  }
  return true;
}

void KdTree::PrewarmScratch(size_t capacity) {
  // Several DFS stacks / heaps can be live at once on one thread (nested
  // streams in the k-way merge, a stage-2 report inside a stage-1 walk).
  util::ScratchVec<int>::Prewarm(4, capacity);
  util::ScratchVec<Incremental::Entry>::Prewarm(4, capacity);
}

int KdTree::Nearest(Point2 q, double* out_dist, const std::vector<char>* skip) const {
  PNN_CHECK_MSG(!points_.empty(), "Nearest on empty tree");
  double best = kInf;
  int best_idx = -1;
  // Iterative DFS with pruning; visits the closer child first. The stack
  // is a scratch lease: Nearest runs once per Monte-Carlo round per query,
  // so a per-call allocation here would dominate the hot path.
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Strict >: a subtree whose bound ties the current best may hold an
    // equal-distance point with a lower index (the tie contract).
    if (BoxDist(n.box, q) > best) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          if (skip != nullptr && (*skip)[order_[i + k]]) continue;
          int idx = order_[i + k];
          if (d[k] < best || (d[k] == best && idx < best_idx)) {
            best = d[k];
            best_idx = idx;
          }
        }
      }
      continue;
    }
    double dl = BoxDist(nodes_[n.left].box, q);
    double dr = BoxDist(nodes_[n.right].box, q);
    if (dl < dr) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (out_dist != nullptr) *out_dist = best;
  return best_idx;
}

std::vector<int> KdTree::KNearest(Point2 q, int k) const {
  std::vector<int> out;
  Incremental inc(*this, q);
  while (static_cast<int>(out.size()) < k && inc.HasNext()) out.push_back(inc.Next());
  return out;
}

std::vector<int> KdTree::ReportWithin(Point2 q, double r) const {
  std::vector<int> out;
  ReportWithinInto(q, r, &out);
  return out;
}

void KdTree::ReportWithinInto(Point2 q, double r, std::vector<int>* out) const {
  if (root_ < 0) return;
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (BoxDist(n.box, q) > r) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          if (d[k] <= r) out->push_back(order_[i + k]);
        }
      }
      continue;
    }
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
}

double KdTree::MinAdditivelyWeighted(Point2 q, int* arg,
                                     const std::vector<char>* skip) const {
  PNN_CHECK_MSG(!points_.empty(), "MinAdditivelyWeighted on empty tree");
  double best = kInf;
  int best_idx = -1;
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Lower bound on d(q, p) + w within the subtree. Strict > keeps tied
    // subtrees visitable (the tie contract).
    double lb = BoxDist(n.box, q) + n.min_w;
    if (lb > best) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          int idx = order_[i + k];
          if (skip != nullptr && (*skip)[idx]) continue;
          double v = d[k] + sw_[i + k];
          if (v < best || (v == best && idx < best_idx)) {
            best = v;
            best_idx = idx;
          }
        }
      }
      continue;
    }
    double ll = BoxDist(nodes_[n.left].box, q) + nodes_[n.left].min_w;
    double lr = BoxDist(nodes_[n.right].box, q) + nodes_[n.right].min_w;
    if (ll < lr) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (arg != nullptr) *arg = best_idx;
  return best;
}

std::vector<int> KdTree::ReportSubtractiveLess(Point2 q, double bound) const {
  std::vector<int> out;
  ReportSubtractiveLessInto(q, bound, &out);
  return out;
}

void KdTree::ReportSubtractiveLessInto(Point2 q, double bound,
                                       std::vector<int>* out) const {
  if (root_ < 0) return;
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Lower bound on d(q, p) - w within the subtree.
    double lb = BoxDist(n.box, q) - n.max_w;
    if (lb >= bound) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          if (d[k] - sw_[i + k] < bound) out->push_back(order_[i + k]);
        }
      }
      continue;
    }
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
}

KdTree::Incremental::Incremental(const KdTree& tree, Point2 q) : tree_(tree), q_(q) {
  heap_->clear();
  if (tree_.root_ >= 0) PushNode(tree_.root_);
}

void KdTree::Incremental::Push(Entry e) {
  heap_->push_back(e);
  std::push_heap(heap_->begin(), heap_->end());
}

KdTree::Incremental::Entry KdTree::Incremental::Pop() {
  std::pop_heap(heap_->begin(), heap_->end());
  Entry e = heap_->back();
  heap_->pop_back();
  return e;
}

void KdTree::Incremental::PushNode(int node) {
  const Node& n = tree_.nodes_[node];
  Push({tree_.BoxDist(n.box, q_), node, -1});
}

int KdTree::Incremental::Next(double* dist) {
  while (!heap_->empty()) {
    Entry top = Pop();
    if (top.node < 0) {
      if (dist != nullptr) *dist = top.key;
      return top.point;
    }
    const Node& n = tree_.nodes_[top.node];
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        tree_.ScanDists(i, cnt, q_, d);
        for (int k = 0; k < cnt; ++k) {
          Push({d[k], -1, tree_.order_[i + k]});
        }
      }
    } else {
      PushNode(n.left);
      PushNode(n.right);
    }
  }
  PNN_CHECK_MSG(false, "Next() called with no remaining points");
  return -1;
}

}  // namespace pnn
