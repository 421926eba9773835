// BlockDevice, LruBlockCache and digest-fold unit tests, ending in the
// determinism proof: two caches — one drawing sampled-LRU eviction victims
// and recording them into a DecisionLog, one replaying that log — stay
// digest-identical through an arbitrary operation stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "app/block_store.h"
#include "app/digest.h"
#include "sim/random.h"
#include "sttcp/decision.h"

namespace sttcp::app {
namespace {

net::Bytes fill(std::size_t n, std::uint8_t seed) {
  net::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i);
  }
  return b;
}

TEST(BlockDeviceTest, WriteReadDeallocate) {
  BlockDevice dev(8, 32);
  EXPECT_FALSE(dev.allocated(3));
  const std::uint64_t empty = dev.digest();

  dev.write(3, fill(10, 0x40));  // short write zero-pads
  EXPECT_TRUE(dev.allocated(3));
  const net::BytesView back = dev.read(3);
  ASSERT_EQ(back.size(), 32u);
  EXPECT_EQ(back[0], 0x40);
  EXPECT_EQ(back[9], 0x49);
  EXPECT_EQ(back[10], 0x00);
  EXPECT_NE(dev.digest(), empty);

  dev.deallocate(3);
  EXPECT_FALSE(dev.allocated(3));
  EXPECT_EQ(dev.read(3)[0], 0x00);  // deleted blocks read back fresh
  EXPECT_EQ(dev.digest(), empty);
}

TEST(BlockDeviceTest, SerializeRestoreRoundtrip) {
  BlockDevice dev(8, 32);
  dev.write(1, fill(32, 0x01));
  dev.write(7, fill(32, 0x07));
  dev.deallocate(1);
  net::Bytes blob;
  net::ByteWriter w(blob);
  dev.serialize(w);

  BlockDevice other(8, 32);
  net::ByteReader r(blob);
  ASSERT_TRUE(other.restore(r));
  EXPECT_EQ(other.digest(), dev.digest());
  EXPECT_TRUE(other.allocated(7));
  EXPECT_FALSE(other.allocated(1));
}

TEST(LruBlockCacheTest, LruOrderAndVictimCandidates) {
  LruBlockCache cache(4, 32);
  for (std::uint32_t b = 0; b < 4; ++b) cache.insert_clean(b, fill(32, b));
  EXPECT_TRUE(cache.full());

  // Touch 0 and 1: LRU-most are now 2, then 3.
  cache.get(0);
  cache.get(1);
  const auto victims = cache.victim_candidates(2);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 3u);
  // Asking for more than resident clamps.
  EXPECT_EQ(cache.victim_candidates(10).size(), 4u);
}

TEST(LruBlockCacheTest, DirtyTrackingAndWriteback) {
  BlockDevice dev(8, 32);
  LruBlockCache cache(4, 32);
  cache.put(5, fill(32, 0x55));  // dirty insert
  cache.put(2, fill(32, 0x22));
  cache.insert_clean(1, fill(32, 0x11));
  EXPECT_EQ(cache.dirty_count(), 2u);

  // Writeback order is dirty-age order, not LRU order.
  const auto batch = cache.oldest_dirty(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 5u);
  EXPECT_EQ(batch[1], 2u);

  cache.flush(5, dev);
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_TRUE(cache.contains(5));  // flush keeps the page resident
  EXPECT_EQ(dev.read(5)[0], 0x55);
  // Re-flushing a clean page is a no-op.
  cache.flush(5, dev);
  EXPECT_EQ(cache.dirty_count(), 1u);

  EXPECT_EQ(cache.flush_all(dev), 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(dev.read(2)[0], 0x22);
}

TEST(LruBlockCacheTest, EvictWritesBackDirtyVictim) {
  BlockDevice dev(8, 32);
  LruBlockCache cache(2, 32);
  cache.put(0, fill(32, 0xA0));
  cache.insert_clean(1, fill(32, 0xB0));

  cache.evict(0, dev);  // dirty: must land on the device
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(dev.read(0)[0], 0xA0);

  cache.evict(1, dev);  // clean: dropped, device untouched
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(dev.allocated(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruBlockCacheTest, DropAllCleanKeepsDirtyPages) {
  LruBlockCache cache(4, 32);
  cache.put(0, fill(32, 1));
  cache.insert_clean(1, fill(32, 2));
  cache.insert_clean(2, fill(32, 3));
  cache.drop_all_clean();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(cache.dirty_count(), 1u);
}

TEST(LruBlockCacheTest, SerializeRestorePreservesLruAndDirtyOrder) {
  LruBlockCache cache(4, 32);
  cache.put(3, fill(32, 3));
  cache.insert_clean(1, fill(32, 1));
  cache.put(2, fill(32, 2));
  cache.get(3);  // reorder LRU so order != key order

  net::Bytes blob;
  net::ByteWriter w(blob);
  cache.serialize(w);
  LruBlockCache other(4, 32);
  net::ByteReader r(blob);
  ASSERT_TRUE(other.restore(r));

  EXPECT_EQ(other.digest(), cache.digest());
  EXPECT_EQ(other.victim_candidates(4), cache.victim_candidates(4));
  EXPECT_EQ(other.oldest_dirty(4), cache.oldest_dirty(4));
}

// fold_bytes against the definition spelled out: whole 8-byte words as
// little-endian values, then the tail byte by byte, at every alignment.
std::uint64_t reference_fold_bytes(std::uint64_t d, net::BytesView b) {
  const std::size_t words = b.size() / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      v |= static_cast<std::uint64_t>(b[8 * w + k]) << (8 * k);
    }
    d = (d ^ v) * 0x100000001b3ULL;
  }
  for (std::size_t i = 8 * words; i < b.size(); ++i) {
    d = (d ^ b[i]) * 0x100000001b3ULL;
  }
  return d;
}

TEST(BlockDigestTest, FoldBytesMatchesReferenceAtAnyAlignment) {
  net::Bytes buf(513 + 8);
  sim::Rng rng(5);
  for (auto& x : buf) x = static_cast<std::uint8_t>(rng.next_u64());
  for (const std::size_t len : {0u, 1u, 7u, 8u, 9u, 511u, 512u, 513u}) {
    for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
      SCOPED_TRACE(testing::Message() << "len " << len << " offset " << offset);
      const net::BytesView v = net::BytesView(buf).subspan(offset, len);
      EXPECT_EQ(fold_bytes(kFnvBasis, v), reference_fold_bytes(kFnvBasis, v));
    }
  }
  // Pinned: the value does not depend on the host's byte order.
  const net::Bytes one_word_and_tail{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(fold_bytes(kFnvBasis, one_word_and_tail), 0xed45d0efb9194c6cULL);
}

// A dirty flag the dirty queue does not list, and a dirty queue naming one
// page twice, are both inconsistent: restore must refuse them rather than
// leave a queue that flush/drop/evict would later corrupt or never drain.
TEST(LruBlockCacheTest, RestoreRejectsInconsistentDirtyQueue) {
  const auto blob = [](bool dirty, std::vector<std::uint32_t> queue) {
    net::Bytes out;
    net::ByteWriter w(out);
    w.u32(1);  // one page
    w.u32(7);
    w.u8(dirty ? 1 : 0);
    w.bytes(fill(32, 7));
    w.u32(static_cast<std::uint32_t>(queue.size()));
    for (const std::uint32_t b : queue) w.u32(b);
    return out;
  };
  const auto restores = [](const net::Bytes& b) {
    LruBlockCache cache(4, 32);
    net::ByteReader r(b);
    return cache.restore(r);
  };
  EXPECT_TRUE(restores(blob(true, {7})));
  EXPECT_TRUE(restores(blob(false, {})));
  EXPECT_FALSE(restores(blob(true, {})));      // dirty page missing from queue
  EXPECT_FALSE(restores(blob(true, {7, 7})));  // one page queued twice
  EXPECT_FALSE(restores(blob(false, {7})));    // clean page queued
}

// The page get() returned, or nothing on a miss.
[[maybe_unused]] std::optional<net::Bytes> page_of(const net::Bytes* p) {
  if (p == nullptr) return std::nullopt;
  return *p;
}
[[maybe_unused]] std::optional<net::Bytes> page_of(net::BytesView v) {
  if (v.empty()) return std::nullopt;
  return net::Bytes(v.begin(), v.end());
}
template <class Range>
std::vector<std::uint32_t> to_vec(const Range& r) {
  return std::vector<std::uint32_t>(r.begin(), r.end());
}

// A naive reference for LruBlockCache: pages in LRU order (most recent
// first) and a FIFO of dirtied blocks, over a plain vector device.
struct CacheModel {
  struct Page {
    std::uint32_t block;
    bool dirty;
    net::Bytes data;
  };
  std::size_t capacity;
  std::uint32_t block_size;
  std::vector<Page> lru;
  std::deque<std::uint32_t> dirty;
  std::vector<net::Bytes> device;

  CacheModel(std::size_t cap, std::uint32_t bs, std::uint32_t blocks)
      : capacity(cap), block_size(bs), device(blocks, net::Bytes(bs, 0)) {}

  net::Bytes padded(net::BytesView d) const {
    net::Bytes p(d.begin(), d.end());
    p.resize(block_size, 0);
    return p;
  }
  std::vector<Page>::iterator find(std::uint32_t b) {
    return std::find_if(lru.begin(), lru.end(),
                        [b](const Page& p) { return p.block == b; });
  }
  bool contains(std::uint32_t b) { return find(b) != lru.end(); }
  void to_front(std::vector<Page>::iterator it) {
    std::rotate(lru.begin(), it, it + 1);
  }
  void undirty(std::uint32_t b) {
    dirty.erase(std::find(dirty.begin(), dirty.end(), b));
  }
  std::optional<net::Bytes> get(std::uint32_t b) {
    auto it = find(b);
    if (it == lru.end()) return std::nullopt;
    to_front(it);
    return lru.front().data;
  }
  void put(std::uint32_t b, net::BytesView d) {
    auto it = find(b);
    if (it == lru.end()) {
      lru.insert(lru.begin(), Page{b, true, padded(d)});
      dirty.push_back(b);
      return;
    }
    it->data = padded(d);
    if (!it->dirty) dirty.push_back(b);
    it->dirty = true;
    to_front(it);
  }
  void insert_clean(std::uint32_t b, net::BytesView d) {
    lru.insert(lru.begin(), Page{b, false, padded(d)});
  }
  void drop(std::uint32_t b) {
    auto it = find(b);
    if (it == lru.end()) return;
    if (it->dirty) undirty(b);
    lru.erase(it);
  }
  void flush(std::uint32_t b) {
    auto it = find(b);
    if (it == lru.end() || !it->dirty) return;
    device[b] = it->data;
    it->dirty = false;
    undirty(b);
  }
  void evict(std::uint32_t b) {
    flush(b);
    drop(b);
  }
  std::vector<std::uint32_t> victim_candidates(std::size_t k) const {
    std::vector<std::uint32_t> out;
    for (auto it = lru.rbegin(); it != lru.rend() && out.size() < k; ++it) {
      out.push_back(it->block);
    }
    return out;
  }
  std::vector<std::uint32_t> oldest_dirty(std::size_t n) const {
    return {dirty.begin(), dirty.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(n, dirty.size()))};
  }
};

// Every cache operation, drawn at random, against the reference model; a
// twin cache fed the same operations (and periodically rebuilt from the
// first one's serialized form) must report the same digest throughout.
TEST(LruBlockCacheTest, RandomOperationsMatchReferenceModel) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint32_t kBlocks = 24;
  constexpr std::uint32_t kBlockSize = 16;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    CacheModel model(kCapacity, kBlockSize, kBlocks);
    BlockDevice dev(kBlocks, kBlockSize), twin_dev(kBlocks, kBlockSize);
    LruBlockCache cache(kCapacity, kBlockSize);
    auto twin = std::make_unique<LruBlockCache>(kCapacity, kBlockSize);

    // Make room the way the server does: evict one of the LRU-tail
    // candidates when the cache is full.
    const auto ensure_slot = [&](std::size_t k) {
      if (!cache.full()) return;
      const auto cands = to_vec(cache.victim_candidates(k));
      ASSERT_EQ(cands, model.victim_candidates(k));
      const std::uint32_t v = cands[rng.below(cands.size())];
      cache.evict(v, dev);
      twin->evict(v, twin_dev);
      model.evict(v);
    };

    for (int step = 0; step < 4000; ++step) {
      const std::uint32_t b = static_cast<std::uint32_t>(rng.below(kBlocks));
      const std::size_t len = 1 + rng.below(kBlockSize);
      net::Bytes data(len);
      for (auto& x : data) x = static_cast<std::uint8_t>(rng.next_u64());
      const std::size_t n = rng.below(kCapacity + 3);
      switch (rng.below(11)) {
        case 0:
        case 1:
          EXPECT_EQ(page_of(cache.get(b)), model.get(b));
          twin->get(b);
          break;
        case 2:
        case 3:
          if (!model.contains(b)) ensure_slot(1 + n);
          cache.put(b, data);
          twin->put(b, data);
          model.put(b, data);
          break;
        case 4:
          if (model.contains(b)) break;
          ensure_slot(1 + n);
          cache.insert_clean(b, data);
          twin->insert_clean(b, data);
          model.insert_clean(b, data);
          break;
        case 5:
          cache.drop(b);
          twin->drop(b);
          model.drop(b);
          break;
        case 6:
          cache.evict(b, dev);
          twin->evict(b, twin_dev);
          model.evict(b);
          break;
        case 7: {
          EXPECT_EQ(to_vec(cache.victim_candidates(n)), model.victim_candidates(n));
          const auto batch = to_vec(cache.oldest_dirty(n));
          ASSERT_EQ(batch, model.oldest_dirty(n));
          for (const std::uint32_t x : batch) {
            cache.flush(x, dev);
            twin->flush(x, twin_dev);
            model.flush(x);
          }
          break;
        }
        case 8:
          cache.flush(b, dev);
          twin->flush(b, twin_dev);
          model.flush(b);
          break;
        case 9:
          if (rng.below(8) != 0) break;
          EXPECT_EQ(cache.flush_all(dev), model.dirty.size());
          twin->flush_all(twin_dev);
          for (const std::uint32_t x : model.oldest_dirty(kCapacity)) model.flush(x);
          break;
        default:
          if (rng.below(4) != 0) {
            // Rebuild the twin from a checkpoint of the cache.
            net::Bytes blob;
            net::ByteWriter w(blob);
            cache.serialize(w);
            twin = std::make_unique<LruBlockCache>(kCapacity, kBlockSize);
            net::ByteReader r(blob);
            ASSERT_TRUE(twin->restore(r));
            EXPECT_EQ(r.remaining(), 0u);
            break;
          }
          cache.drop_all_clean();
          twin->drop_all_clean();
          std::erase_if(model.lru, [](const CacheModel::Page& p) { return !p.dirty; });
          break;
      }
      ASSERT_EQ(cache.size(), model.lru.size());
      ASSERT_EQ(cache.dirty_count(), model.dirty.size());
      ASSERT_EQ(cache.full(), model.lru.size() >= kCapacity);
      ASSERT_EQ(cache.digest(), twin->digest());
      ASSERT_EQ(to_vec(cache.victim_candidates(kCapacity)),
                model.victim_candidates(kCapacity));
      ASSERT_EQ(to_vec(cache.oldest_dirty(kCapacity)), model.oldest_dirty(kCapacity));
    }
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(cache.contains(b), model.contains(b));
      const net::BytesView on_dev = dev.read(b);
      EXPECT_EQ(net::Bytes(on_dev.begin(), on_dev.end()), model.device[b]);
    }
    EXPECT_EQ(dev.digest(), twin_dev.digest());
  }
}

// The determinism proof: a recording cache and a replaying cache fed the
// same operation stream stay identical, even though eviction is sampled-LRU
// random — because the victim travels through the DecisionLog.
TEST(LruBlockCacheTest, TwinCachesEvictIdenticallyFromSharedDecisionLog) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kCandidates = 4;
  constexpr std::uint32_t kBlocks = 64;
  constexpr std::uint32_t kBlockSize = 64;

  BlockDevice p_dev(kBlocks, kBlockSize), b_dev(kBlocks, kBlockSize);
  LruBlockCache p_cache(kCapacity, kBlockSize), b_cache(kCapacity, kBlockSize);
  sttcp::DecisionLog p_log(sttcp::DecisionLog::Mode::kRecord);
  sttcp::DecisionLog b_log(sttcp::DecisionLog::Mode::kReplay);
  sim::Rng ops(42);      // shared op stream (the replicated input)
  sim::Rng victims(99);  // primary-only (the nondeterminism)

  const auto ensure_slot = [&](BlockDevice& dev, LruBlockCache& cache,
                               bool record) {
    if (!cache.full()) return;
    std::uint64_t victim = 0;
    if (record) {
      victim = p_log.choose(sttcp::DecisionKind::kEvict, [&] {
        const auto cands = p_cache.victim_candidates(kCandidates);
        return static_cast<std::uint64_t>(cands[victims.below(cands.size())]);
      });
    } else {
      ASSERT_TRUE(b_log.try_take(sttcp::DecisionKind::kEvict, &victim));
    }
    cache.evict(static_cast<std::uint32_t>(victim), dev);
  };

  const auto apply = [&](bool record, int op, std::uint32_t block,
                         const net::Bytes& data) {
    BlockDevice& dev = record ? p_dev : b_dev;
    LruBlockCache& cache = record ? p_cache : b_cache;
    switch (op) {
      case 0:  // GET-shaped: read through, faulting in on miss
        if (cache.get(block).empty() && dev.allocated(block)) {
          ensure_slot(dev, cache, record);
          cache.insert_clean(block, dev.read(block));
        }
        break;
      case 1:  // PUT-shaped
        if (!cache.contains(block)) ensure_slot(dev, cache, record);
        cache.put(block, data);
        dev.allocate(block);
        break;
      default:  // DELETE-shaped
        cache.drop(block);
        dev.deallocate(block);
        break;
    }
  };

  for (int step = 0; step < 500; ++step) {
    const std::uint32_t block = static_cast<std::uint32_t>(ops.below(kBlocks));
    const int op = static_cast<int>(ops.below(3));
    const net::Bytes data = fill(kBlockSize, static_cast<std::uint8_t>(step));

    apply(/*record=*/true, op, block, data);
    // Ship this step's decisions primary -> backup, as a heartbeat would,
    // then run the replay twin off the log.
    b_log.ingest(p_log.unacked(64));
    p_log.on_peer_ack(b_log.rx_cursor());
    apply(/*record=*/false, op, block, data);
  }

  EXPECT_GT(p_log.stats().appended, 0u);  // evictions actually happened
  EXPECT_EQ(b_log.pending_replay(), 0u);  // every one was consumed
  EXPECT_EQ(p_cache.digest(), b_cache.digest());
  EXPECT_EQ(p_dev.digest(), b_dev.digest());
  EXPECT_EQ(p_cache.victim_candidates(kCapacity),
            b_cache.victim_candidates(kCapacity));
}

}  // namespace
}  // namespace sttcp::app
