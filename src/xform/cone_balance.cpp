// Cone balancing by *unsharing*.
//
// The residual asymmetry class of this library's generated circuits
// (see tests/test_symmetry.cpp, SboxOutputsAreIsomorphic) is: the two
// rails' fanin cones are structurally isomorphic — same recursive
// signature — but their *distinct* ancestor counts differ, because the
// shared decode logic below the merge trees is shared more aggressively
// on one side than the other. check_rail_symmetry rightly reports that
// as asymmetric: the per-level distinct-gate histograms (and hence the
// per-level switched capacitance available to one computation) differ.
//
// The fix is the dual of sharing: where rail r's cone is short one gate
// of kind k at level l, find a cell of that kind and level inside the
// cone whose output fans out to several in-cone sinks, clone it (same
// kind, same inputs — the clone computes the identical function), and
// rewire exactly one of those sinks to the clone. Function, protocol,
// and hazard-freedom are untouched; the cone gains one distinct cell at
// exactly (l, k). Repeating this until every rail matches the per-level
// maximum makes the channel's histograms — and, because the signatures
// were already isomorphic, the full SymmetryReport — symmetric.
//
// Channels whose asymmetry is NOT of this class (differing primary-
// input support, genuinely different structure like dr_and's 3-vs-1
// minterm merge, or no valid clone site) are left untouched and
// reported as skipped: inventing structure would change transition
// counts, which is the opposite of balancing.
//
// ---- plan-then-commit execution -------------------------------------------
//
// At core scale (aes_core: ~25k cells, ~2.4k channels) the naive
// visit-everything-every-round loop is minutes of work, so the pass runs
// in two phases per round:
//
//   PLAN    Per-channel analysis fans out across worker threads over the
//           *frozen* netlist. A planner simulates the serial pass's
//           clone-and-rewire edits on a copy-on-write Overlay (virtual
//           clone ids, virtual output nets, cow sink/input lists that
//           replicate add_cell/rewire_input ordering exactly) and records
//           the clone list plus the channel's read *footprint* (its cone
//           members).
//
//   COMMIT  Plans apply serially in ascending channel-id order. A plan
//           whose footprint intersects the cells dirtied by earlier
//           commits this round is re-planned in place against the live
//           netlist — exactly what the serial pass would have computed at
//           that position — so the committed netlist is byte-identical to
//           the single-threaded pass at any thread count.
//
// Rounds after the first only revisit channels whose stored footprint
// intersects the previous round's dirty set: a clone-and-rewire can only
// change channel X's plan through a cell X already read (the moved sink
// and the cloned cell are both cone members of any channel they affect;
// foreign clones outside a cone are invisible to its membership tests).
// Untouched channels' round-(r+1) visits were no-ops in the old
// algorithm — now they are skipped outright, which is where most of the
// wall-time at aes_core scale went (the fixpoint typically needs one
// heavy round, one light round, and six no-op confirmation sweeps).
// Per-rail cone membership uses epoch-stamped per-worker scratch instead
// of a fresh num_cells-sized mask per rail visit, and clone-site lookup
// is bucketed by (level, kind) instead of rescanning every cone member
// per deficit.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qdi/netlist/graph.hpp"
#include "qdi/netlist/symmetry.hpp"
#include "qdi/util/log.hpp"
#include "qdi/util/parallel.hpp"
#include "qdi/xform/passes.hpp"

namespace qdi::xform {

namespace {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::Channel;
using netlist::ChannelId;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::Net;
using netlist::Netlist;
using netlist::NetId;
using netlist::Pin;

/// (level, kind) — the unit of histogram accounting.
using Key = std::pair<int, int>;
/// (level, kind) -> distinct-cell count; std::map for deterministic
/// deficit iteration order.
using Hist = std::map<Key, std::size_t>;

std::size_t hist_count(const Hist& h, const Key& k) {
  const auto it = h.find(k);
  return it == h.end() ? 0 : it->second;
}

/// Dense mirror of the netlist fields the cone walk touches. Cell and
/// Net carry strings and sink vectors the walk never reads; at aes_core
/// scale (~61M member visits per round) the pointer-chasing through
/// those fat structs dominates the pass, so the walk reads these flat
/// arrays instead. Rebuilt from scratch each round (cheap: one linear
/// scan) and patched incrementally at every commit so it always equals
/// the live netlist.
struct FlatGraph {
  std::vector<CellKind> kind;            ///< per cell
  std::vector<int> level;                ///< per cell (Graph::level)
  std::vector<std::uint32_t> input_off;  ///< per cell, size num_cells+1
  std::vector<NetId> input_net;          ///< CSR payload of cell inputs
  std::vector<CellId> driver;            ///< per net

  void build(const Netlist& nl, const netlist::Graph& g) {
    const std::size_t nc = nl.num_cells();
    const std::size_t nn = nl.num_nets();
    kind.resize(nc);
    level.resize(nc);
    driver.resize(nn);
    for (NetId n = 0; n < static_cast<NetId>(nn); ++n)
      driver[n] = nl.net(n).driver;
    input_off.clear();
    input_off.reserve(nc + 1);
    input_off.push_back(0);
    input_net.clear();
    for (CellId c = 0; c < static_cast<CellId>(nc); ++c) {
      const Cell& cell = nl.cell(c);
      kind[c] = cell.kind;
      level[c] = g.level(c);
      input_net.insert(input_net.end(), cell.inputs.begin(),
                       cell.inputs.end());
      input_off.push_back(static_cast<std::uint32_t>(input_net.size()));
    }
  }

  /// Mirror of add_net + add_cell + rewire_input for one committed
  /// clone: `inputs` are the clone's input nets, `nn` its output net id
  /// (== driver.size() by construction), and the rewired (sink, pin)
  /// now reads `nn`. Levels are fanin-derived, so the clone inherits
  /// the original's level.
  void append_clone(CellId clone, const std::vector<NetId>& inputs,
                    int clone_level, CellKind clone_kind, NetId nn,
                    CellId sink, int sink_pin) {
    driver.push_back(clone);  // net nn: ids stay dense
    kind.push_back(clone_kind);
    level.push_back(clone_level);
    input_net.insert(input_net.end(), inputs.begin(), inputs.end());
    input_off.push_back(static_cast<std::uint32_t>(input_net.size()));
    input_net[input_off[sink] + static_cast<std::uint32_t>(sink_pin)] = nn;
  }
};

/// One clone-and-rewire edit: duplicate `orig`, move sink pin
/// (sink_cell, sink_pin) onto the duplicate. Ids may be *virtual*
/// (>= the plan's base_cells) when they reference clones planned earlier
/// in the same channel visit; commit resolves them in creation order.
struct PlannedClone {
  CellId orig = kNoCell;
  CellId sink_cell = kNoCell;
  int sink_pin = 0;
};

/// Everything one channel visit decided, plus the read set that
/// determines whether the decision survives earlier commits.
struct ChannelPlan {
  bool visited = false;  ///< rails >= 2, planning ran
  bool changed = false;
  bool set_note = false;
  bool clear_note = false;
  std::string note;
  std::vector<PlannedClone> clones;
  /// Sorted unique ids of every *real* cell the planner read (cone
  /// members of all rails, evicted members included). Any commit that
  /// can change this channel's plan dirties at least one of them.
  std::vector<CellId> footprint;
  std::size_t base_cells = 0;  ///< virtual-id base at plan time
};

/// Copy-on-write view of (netlist + the clones planned so far for one
/// channel). Mutations replicate Netlist::add_cell / rewire_input
/// byte-for-byte where it matters: pin push order into sink lists and
/// order-preserving erase of a moved pin, so a plan's site search sees
/// exactly what the serial pass's live netlist would show.
class Overlay {
 public:
  /// Lightweight view over a cell's input nets: either a CSR slice of
  /// the FlatGraph or a cow/virtual vector.
  struct InSpan {
    const NetId* ptr = nullptr;
    std::size_t len = 0;
    const NetId* begin() const { return ptr; }
    const NetId* end() const { return ptr + len; }
    std::size_t size() const { return len; }
    NetId operator[](std::size_t i) const { return ptr[i]; }
  };

  Overlay(const Netlist& nl, const FlatGraph& fg)
      : nl_(&nl),
        fg_(&fg),
        base_cells_(static_cast<CellId>(nl.num_cells())),
        base_nets_(static_cast<NetId>(nl.num_nets())) {}

  CellId base_cells() const { return base_cells_; }
  bool is_virtual(CellId c) const { return c >= base_cells_; }

  CellKind kind(CellId c) const {
    return is_virtual(c) ? vcells_[c - base_cells_].kind : fg_->kind[c];
  }
  int level(CellId c) const {
    return is_virtual(c) ? vcells_[c - base_cells_].level : fg_->level[c];
  }
  NetId output(CellId c) const {
    return is_virtual(c) ? base_nets_ + (c - base_cells_) : nl_->cell(c).output;
  }
  InSpan inputs(CellId c) const {
    if (is_virtual(c)) {
      const std::vector<NetId>& v = vcells_[c - base_cells_].inputs;
      return {v.data(), v.size()};
    }
    // Most visits plan zero clones, so the overlay maps are usually
    // empty: skip the hash lookup on that hot path.
    if (!inputs_ov_.empty()) {
      const auto it = inputs_ov_.find(c);
      if (it != inputs_ov_.end()) return {it->second.data(), it->second.size()};
    }
    return {fg_->input_net.data() + fg_->input_off[c],
            static_cast<std::size_t>(fg_->input_off[c + 1] -
                                     fg_->input_off[c])};
  }
  const std::vector<Pin>& sinks(NetId n) const {
    // Virtual nets always own an entry, so the fallback is real-only.
    if (!sinks_ov_.empty()) {
      const auto it = sinks_ov_.find(n);
      if (it != sinks_ov_.end()) return it->second;
    }
    return nl_->net(n).sinks;
  }
  CellId driver(NetId n) const {
    return n >= base_nets_ ? base_cells_ + (n - base_nets_) : fg_->driver[n];
  }

  /// The virtual counterpart of the commit's add_net + add_cell +
  /// rewire_input sequence. Returns the virtual clone id.
  CellId clone_and_rewire(CellId orig, CellId sink_cell, int sink_pin) {
    VCell vc;
    vc.kind = kind(orig);
    vc.level = level(orig);
    const InSpan in = inputs(orig);  // snapshot of the *current* inputs
    vc.inputs.assign(in.begin(), in.end());
    const CellId cc = base_cells_ + static_cast<CellId>(vcells_.size());
    const NetId nn = base_nets_ + static_cast<NetId>(vcells_.size());
    // add_cell: the clone becomes a sink of each of its input nets, in
    // pin order.
    for (std::size_t pin = 0; pin < vc.inputs.size(); ++pin)
      mutable_sinks(vc.inputs[pin]).push_back(
          Pin{cc, static_cast<int>(pin)});
    sinks_ov_.emplace(nn, std::vector<Pin>{});
    vcells_.push_back(std::move(vc));
    // rewire_input: order-preserving erase from the old net, append to
    // the clone's net.
    std::vector<NetId>& si = mutable_inputs(sink_cell);
    const NetId old_net = si[static_cast<std::size_t>(sink_pin)];
    std::vector<Pin>& old_sinks = mutable_sinks(old_net);
    const Pin target{sink_cell, sink_pin};
    for (std::size_t i = 0; i < old_sinks.size(); ++i) {
      if (old_sinks[i] == target) {
        old_sinks.erase(old_sinks.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    mutable_sinks(nn).push_back(target);
    si[static_cast<std::size_t>(sink_pin)] = nn;
    return cc;
  }

 private:
  struct VCell {
    CellKind kind{};
    int level = 0;
    std::vector<NetId> inputs;
  };

  std::vector<Pin>& mutable_sinks(NetId n) {
    auto it = sinks_ov_.find(n);
    if (it == sinks_ov_.end())
      it = sinks_ov_.emplace(n, nl_->net(n).sinks).first;
    return it->second;
  }
  std::vector<NetId>& mutable_inputs(CellId c) {
    if (is_virtual(c)) return vcells_[c - base_cells_].inputs;
    auto it = inputs_ov_.find(c);
    if (it == inputs_ov_.end())
      it = inputs_ov_.emplace(c, nl_->cell(c).inputs).first;
    return it->second;
  }

  const Netlist* nl_;
  const FlatGraph* fg_;
  CellId base_cells_;
  NetId base_nets_;
  std::vector<VCell> vcells_;
  std::unordered_map<NetId, std::vector<Pin>> sinks_ov_;
  std::unordered_map<CellId, std::vector<NetId>> inputs_ov_;
};

/// Per-worker epoch-stamped cone-membership scratch: one stamp array per
/// rail slot, reused across every channel visit of the worker. A cell is
/// in rail r's cone iff its stamp equals the visit epoch — clearing is a
/// single epoch bump instead of a num_cells memset per rail.
class Marks {
 public:
  void begin_visit(std::size_t rails, std::size_t capacity) {
    ++epoch_;
    if (stamps_.size() < rails) stamps_.resize(rails);
    for (std::size_t r = 0; r < rails; ++r)
      if (stamps_[r].size() < capacity) stamps_[r].resize(capacity, 0);
  }
  bool in_cone(std::size_t r, CellId c) const {
    return stamps_[r][c] == epoch_;
  }
  void set(std::size_t r, CellId c) { stamps_[r][c] = epoch_; }
  void clear(std::size_t r, CellId c) { stamps_[r][c] = 0; }

 private:
  std::vector<std::vector<std::uint32_t>> stamps_;
  std::uint32_t epoch_ = 0;
};

struct RailCone {
  /// Cone cells in ascending id order (candidate iteration order). May
  /// retain evicted cells — consumers re-check membership — and clones
  /// are appended (their ids are the largest, so order is preserved).
  std::vector<CellId> members;
  Hist hist;  ///< real gates only
  /// Clone-site candidates by (level, kind), each list ascending by id.
  /// Built lazily on the first find_site against this rail: the common
  /// visit (already balanced, or skipped before site search) never pays
  /// for it.
  std::map<Key, std::vector<CellId>> buckets;
  bool buckets_built = false;
  std::size_t input_cells = 0;
  bool driven = false;
};

struct CloneSite {
  CellId cell = kNoCell;
  CellId sink_cell = kNoCell;
  int sink_pin = 0;
};

/// Plans one channel against a (frozen or live) netlist. Stateless
/// between plan() calls except for reused scratch buffers, so one
/// planner per worker suffices.
class ChannelPlanner {
 public:
  ChannelPlanner(const Netlist& nl, const FlatGraph& fg,
                 const ConeBalanceOptions& opt)
      : nl_(nl), fg_(fg), opt_(opt) {}

  /// `budget` = clones this channel may still receive (max minus already
  /// committed). The plan is exactly what the serial pass's
  /// balance_channel visit would do from the current netlist state.
  ChannelPlan plan(ChannelId id, std::size_t budget, Marks& marks) {
    ChannelPlan out;
    out.base_cells = nl_.num_cells();
    const Channel& ch = nl_.channel(id);
    if (ch.rails.size() < 2) return out;
    out.visited = true;

    Overlay ov(nl_, fg_);
    marks.begin_visit(ch.rails.size(), nl_.num_cells() + budget + 1);

    std::vector<RailCone> cones(ch.rails.size());
    for (std::size_t r = 0; r < ch.rails.size(); ++r)
      compute_cone(ov, r, ch.rails[r], marks, cones[r]);

    const auto finish = [&] {
      collect_footprint(cones, out);
      return out;
    };

    for (const RailCone& rc : cones) {
      if (!rc.driven) return skip(out, ch, "undriven rail"), finish();
    }
    // Cloning adds gates, never primary inputs: rails with differing
    // input support cannot be balanced by this pass.
    for (std::size_t r = 1; r < cones.size(); ++r) {
      if (cones[r].input_cells != cones[0].input_cells)
        return skip(out, ch, "primary-input support differs between rails"),
               finish();
    }

    for (;;) {
      // Per-(level, kind) target = max over rails; first deficit in
      // (rail, level, kind) order is the next hole to fill.
      Hist target;
      for (const RailCone& rc : cones)
        for (const auto& [key, n] : rc.hist)
          target[key] = std::max(target[key], n);
      std::size_t rail = cones.size();
      Key key{};
      for (std::size_t r = 0; r < cones.size() && rail == cones.size(); ++r) {
        for (const auto& [k, want] : target) {
          if (hist_count(cones[r].hist, k) < want) {
            rail = r;
            key = k;
            break;
          }
        }
      }
      if (rail == cones.size()) {
        // Histograms uniform (and with matching input support, cone
        // sizes follow). Signature equality is the verifier's concern.
        out.clear_note = true;
        return finish();
      }

      if (out.clones.size() >= budget) {
        skip(out, ch, "clone budget exhausted");
        return finish();
      }
      const CloneSite site = find_site(ov, marks, cones, ch, rail, key);
      if (site.cell == kNoCell) {
        std::ostringstream os;
        os << "no clone site for kind "
           << netlist::name(static_cast<CellKind>(key.second)) << " at level "
           << key.first << " on rail " << rail;
        skip(out, ch, os.str());
        return finish();
      }
      apply_virtual(ov, marks, cones, ch, site, key);
      out.clones.push_back({site.cell, site.sink_cell, site.sink_pin});
      out.changed = true;
    }
  }

 private:
  void skip(ChannelPlan& out, const Channel& ch, const std::string& why) {
    std::ostringstream os;
    os << "channel '" << ch.name << "': " << why;
    out.set_note = true;
    out.note = os.str();
  }

  /// Mirror of Graph::fanin_cone over the overlay view: walk driver
  /// edges, never ascending in level (feedback cut).
  void compute_cone(const Overlay& ov, std::size_t r, NetId rail,
                    Marks& marks, RailCone& rc) {
    const CellId root = ov.driver(rail);
    if (root == kNoCell) return;
    rc.driven = true;
    stack_.clear();
    stack_.push_back(root);
    marks.set(r, root);
    while (!stack_.empty()) {
      const CellId c = stack_.back();
      stack_.pop_back();
      rc.members.push_back(c);
      const CellKind k = ov.kind(c);
      if (k == CellKind::Input) {
        ++rc.input_cells;
      } else if (!netlist::is_pseudo(k)) {
        ++rc.hist[{ov.level(c), static_cast<int>(k)}];
      }
      for (NetId in : ov.inputs(c)) {
        const CellId p = ov.driver(in);
        if (p != kNoCell && !marks.in_cone(r, p) && ov.level(p) <= ov.level(c)) {
          marks.set(r, p);
          stack_.push_back(p);
        }
      }
    }
    // members stays in traversal order — only the site-candidate buckets
    // need ascending ids, and they sort their (much smaller) lists when
    // lazily built.
  }

  static void ensure_buckets(const Overlay& ov, RailCone& rc) {
    if (rc.buckets_built) return;
    rc.buckets_built = true;
    for (CellId c : rc.members) {
      const CellKind k = ov.kind(c);
      if (k == CellKind::Input || netlist::is_pseudo(k)) continue;
      rc.buckets[{ov.level(c), static_cast<int>(k)}].push_back(c);
    }
    // Ascending id = the serial pass's candidate scan order. Clones
    // appended after this keep it: their ids only grow.
    for (auto& [key, list] : rc.buckets) {
      (void)key;
      std::sort(list.begin(), list.end());
    }
  }

  void collect_footprint(const std::vector<RailCone>& cones,
                         ChannelPlan& out) {
    // Plain concatenation of the real (non-virtual) cone members; the
    // footprint is only ever membership-tested against a dirty mask, so
    // cross-rail duplicates are harmless and not worth deduplicating.
    for (const RailCone& rc : cones)
      for (CellId c : rc.members)
        if (c < static_cast<CellId>(out.base_cells))
          out.footprint.push_back(c);
  }

  /// A valid site duplicates a shared cell of the wanted (level, kind)
  /// inside rail `r`'s cone and steals one of its forward in-cone sinks.
  /// Per rail cone containing the stolen sink, the clone joins it and
  /// the original either stays (another edge keeps it reachable — the
  /// cone gains one distinct cell, so it must be below target) or is
  /// replaced by the clone (count unchanged — always safe). The target
  /// rail `r` must be in the former class, or there is no progress.
  CloneSite find_site(const Overlay& ov, const Marks& marks,
                      std::vector<RailCone>& cones, const Channel& ch,
                      std::size_t r, const Key& key) const {
    ensure_buckets(ov, cones[r]);
    const auto bit = cones[r].buckets.find(key);
    if (bit == cones[r].buckets.end()) return {};
    for (CellId c : bit->second) {
      if (!marks.in_cone(r, c)) continue;  // evicted since discovery
      if (ov.output(c) == kNoNet) continue;
      for (const Pin& pin : ov.sinks(ov.output(c))) {
        if (netlist::is_pseudo(ov.kind(pin.cell))) continue;
        // The cone traversal descends an edge iff level[driver] <=
        // level[sink] (Graph::fanin_cone's cycle cut). Only such edges
        // let the sink adopt the clone — level[clone] == level[c] —
        // into a cone; the rule here must mirror the traversal exactly
        // or the incremental cone bookkeeping drifts.
        if (ov.level(pin.cell) < ov.level(c)) continue;
        if (!marks.in_cone(r, pin.cell)) continue;
        if (site_ok(ov, marks, cones, ch, c, pin, key, r))
          return {c, pin.cell, pin.pin};
      }
    }
    return {};
  }

  /// Does cell `c` keep a path into the cone after losing the `moved`
  /// edge — i.e. does it drive the rail itself or feed another forward
  /// in-cone sink?
  bool stays_in_cone(const Overlay& ov, const Marks& marks, std::size_t r,
                     NetId rail, CellId c, const Pin& moved) const {
    if (ov.output(c) == rail) return true;
    for (const Pin& other : ov.sinks(ov.output(c))) {
      if (other == moved) continue;
      if (netlist::is_pseudo(ov.kind(other.cell))) continue;
      // Same inclusive rule as the cone traversal (level[c] <=
      // level[sink] edges are descended): see find_site.
      if (ov.level(other.cell) < ov.level(c)) continue;
      if (marks.in_cone(r, other.cell)) return true;
    }
    return false;
  }

  bool site_ok(const Overlay& ov, const Marks& marks,
               const std::vector<RailCone>& cones, const Channel& ch, CellId c,
               const Pin& moved, const Key& key, std::size_t target_rail) const {
    for (std::size_t r2 = 0; r2 < cones.size(); ++r2) {
      if (!marks.in_cone(r2, moved.cell)) {
        if (r2 == target_rail) return false;  // unreachable; defensive
        continue;
      }
      const bool stays =
          stays_in_cone(ov, marks, r2, ch.rails[r2], c, moved);
      if (r2 == target_rail) {
        // Progress requires the original to remain: the cone must end up
        // with both the original and the clone.
        if (!stays) return false;
        continue;
      }
      if (!stays) continue;  // clone replaces original: count unchanged
      // Cone gains a distinct cell at (level, kind): only allowed while
      // it is below the shared target, or the overshoot would ratchet
      // the target upward on the next iteration.
      const std::size_t have = hist_count(cones[r2].hist, key);
      std::size_t want = 0;
      for (const RailCone& other : cones)
        want = std::max(want, hist_count(other.hist, key));
      if (have >= want) return false;
    }
    return true;
  }

  void apply_virtual(Overlay& ov, Marks& marks, std::vector<RailCone>& cones,
                     const Channel& ch, const CloneSite& site, const Key& key) {
    const Pin moved{site.sink_cell, site.sink_pin};
    // Membership deltas are decided against the pre-rewire state: the
    // clone joins every cone containing the stolen sink, and the
    // original leaves those where the stolen edge was its only forward
    // path (its ancestors stay reachable through the clone, which
    // shares its inputs).
    joins_.assign(cones.size(), 0);
    evicts_.assign(cones.size(), 0);
    for (std::size_t r = 0; r < cones.size(); ++r) {
      if (!marks.in_cone(r, site.sink_cell)) continue;
      joins_[r] = 1;
      evicts_[r] =
          !stays_in_cone(ov, marks, r, ch.rails[r], site.cell, moved);
    }

    const CellId cc =
        ov.clone_and_rewire(site.cell, site.sink_cell, site.sink_pin);

    for (std::size_t r = 0; r < cones.size(); ++r) {
      if (!joins_[r]) continue;
      marks.set(r, cc);
      cones[r].members.push_back(cc);  // largest id: order preserved
      // An unbuilt bucket set picks the clone up from members when (if
      // ever) this rail's first find_site builds it.
      if (cones[r].buckets_built) cones[r].buckets[key].push_back(cc);
      ++cones[r].hist[key];
      if (evicts_[r]) {
        marks.clear(r, site.cell);  // members/bucket entries go stale
        --cones[r].hist[key];
      }
    }
  }

  const Netlist& nl_;
  const FlatGraph& fg_;
  const ConeBalanceOptions& opt_;
  std::vector<CellId> stack_;
  std::vector<char> joins_, evicts_;
};

class Balancer {
 public:
  Balancer(Netlist& nl, const ConeBalanceOptions& opt, unsigned threads,
           PassReport& rep)
      : nl_(nl), opt_(opt), threads_(threads), rep_(rep) {}

  void run() {
    footprints_.resize(nl_.num_channels());
    // Round 1 visits everything; later rounds only what earlier commits
    // could have re-broken.
    std::vector<ChannelId> worklist(nl_.num_channels());
    for (ChannelId id = 0; id < nl_.num_channels(); ++id) worklist[id] = id;

    for (int round = 0; round < opt_.max_rounds && !worklist.empty();
         ++round) {
      const auto tr0 = std::chrono::steady_clock::now();
      refresh_graph();
      dirty_.assign(nl_.num_cells(), 0);
      bool changed = false;

      if (threads_ <= 1) {
        // Serial: plan against the live netlist and commit immediately —
        // the reference order every parallel run must reproduce.
        ChannelPlanner planner(nl_, flat_, opt_);
        Marks marks;
        for (ChannelId id : worklist) {
          ChannelPlan plan = planner.plan(id, budget_of(id), marks);
          changed |= commit(id, plan);
        }
      } else {
        // PLAN: fan out over the frozen netlist; plans land in
        // worklist-indexed slots, so the outcome is independent of the
        // slab partition.
        std::vector<ChannelPlan> plans(worklist.size());
        std::vector<Marks> marks(threads_);
        util::parallel_for_slabs(
            threads_, worklist.size(),
            [&](unsigned w, std::size_t begin, std::size_t end) {
              ChannelPlanner planner(nl_, flat_, opt_);
              for (std::size_t i = begin; i < end; ++i)
                plans[i] = planner.plan(worklist[i], budget_of(worklist[i]),
                                        marks[w]);
            });
        // COMMIT: serial, ascending channel id. A stale plan (footprint
        // touched by an earlier commit this round) is re-planned here,
        // at its serial position, against the live netlist.
        ChannelPlanner replanner(nl_, flat_, opt_);
        for (std::size_t i = 0; i < worklist.size(); ++i) {
          const ChannelId id = worklist[i];
          if (intersects_dirty(plans[i].footprint))
            plans[i] = replanner.plan(id, budget_of(id), marks[0]);
          changed |= commit(id, plans[i]);
        }
      }

      util::log_debug("cone-balance round=", round,
                      " worklist=", worklist.size(),
                      " clones=", rep_.cells_added, " ",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - tr0)
                          .count(),
                      "s");
      if (!changed) break;
      worklist = next_worklist();
    }

    for (const auto& [id, note] : skip_notes_) {
      (void)id;
      ++rep_.channels_skipped;
      rep_.notes.push_back(note);
    }
    // Touched = received at least one clone, whether or not it reached
    // balance; a channel can be both touched and skipped (e.g. clone
    // budget exhausted mid-way, or re-broken by a sibling's clones).
    for (const auto& [id, clones] : clones_of_) {
      (void)id;
      if (clones > 0) ++rep_.channels_touched;
    }
  }

 private:
  void refresh_graph() {
    const netlist::Graph g(nl_);
    flat_.build(nl_, g);
  }

  std::size_t budget_of(ChannelId id) const {
    const auto it = clones_of_.find(id);
    const std::size_t done = it == clones_of_.end() ? 0 : it->second;
    return done >= opt_.max_clones_per_channel
               ? 0
               : opt_.max_clones_per_channel - done;
  }

  bool intersects_dirty(const std::vector<CellId>& footprint) const {
    for (CellId c : footprint)
      if (c < dirty_.size() && dirty_[c]) return true;
    return false;
  }

  void mark_dirty(CellId c) {
    if (c >= dirty_.size()) dirty_.resize(nl_.num_cells(), 0);
    dirty_[c] = 1;
  }

  /// Apply one channel's plan to the live netlist: resolve virtual ids
  /// in creation order and replay add_net/add_cell/rewire_input exactly
  /// as the serial pass would.
  bool commit(ChannelId id, const ChannelPlan& plan) {
    if (!plan.visited) return false;
    if (plan.clear_note) skip_notes_.erase(id);
    if (plan.set_note) skip_notes_[id] = plan.note;

    created_.clear();
    const auto resolve = [&](CellId c) {
      return c >= static_cast<CellId>(plan.base_cells)
                 ? created_[c - static_cast<CellId>(plan.base_cells)]
                 : c;
    };
    for (const PlannedClone& pc : plan.clones) {
      const CellId orig = resolve(pc.orig);
      const CellId sink = resolve(pc.sink_cell);
      const Cell original = nl_.cell(orig);
      std::ostringstream os;
      os << original.name << "$bal" << clone_counter_++;
      const std::string cname = os.str();
      const NetId nn = nl_.add_net(cname + "$o");
      const CellId cc =
          nl_.add_cell(original.kind, cname, original.inputs, nn,
                       original.hier);
      nl_.cell(cc).delay_jitter_ps = original.delay_jitter_ps;
      nl_.rewire_input(sink, pc.sink_pin, nn);
      flat_.append_clone(cc, original.inputs, flat_.level[orig],
                         original.kind, nn, sink, pc.sink_pin);
      ++rep_.cells_added;
      ++rep_.nets_added;
      created_.push_back(cc);
      // Only the rewired sink invalidates other channels' state: a
      // channel's cone (and hence hist, sites, notes) can change only if
      // it contains `sink` — `orig` in a cone without `sink` leaves every
      // read unchanged (the clone and the moved pin are invisible behind
      // the planner's in-cone gates), and `sink` in a cone forces `orig`
      // into it too (the traversal descends the very edge being moved).
      mark_dirty(sink);
    }
    if (!plan.clones.empty()) clones_of_[id] += plan.clones.size();

    // The stored footprint feeds the next round's worklist: the plan's
    // read set plus the cells this commit created.
    std::vector<CellId>& fp = footprints_[id];
    fp = plan.footprint;
    fp.insert(fp.end(), created_.begin(), created_.end());
    return plan.changed;
  }

  std::vector<ChannelId> next_worklist() const {
    std::vector<ChannelId> out;
    for (ChannelId id = 0; id < nl_.num_channels(); ++id)
      if (intersects_dirty(footprints_[id])) out.push_back(id);
    return out;
  }

  Netlist& nl_;
  const ConeBalanceOptions& opt_;
  unsigned threads_;
  PassReport& rep_;
  FlatGraph flat_;
  std::vector<char> dirty_;
  std::vector<std::vector<CellId>> footprints_;
  std::vector<CellId> created_;
  std::map<ChannelId, std::string> skip_notes_;
  std::map<ChannelId, std::size_t> clones_of_;
  std::size_t clone_counter_ = 0;
};

}  // namespace

PassReport ConeBalancePass::run(netlist::Netlist& nl) const {
  PassReport rep;
  rep.pass = name();
  const unsigned threads =
      opt_.threads == 0 ? util::hardware_threads() : opt_.threads;
  if (opt_.verify)
    rep.metric_before = static_cast<double>(
        netlist::count_asymmetric_channels(netlist::Graph(nl), threads));

  Balancer balancer(nl, opt_, threads, rep);
  balancer.run();
  rep.changed = rep.cells_added > 0;

  if (opt_.verify) {
    rep.metric_after = static_cast<double>(
        netlist::count_asymmetric_channels(netlist::Graph(nl), threads));
    rep.verified = true;
  }
  return rep;
}

}  // namespace qdi::xform
