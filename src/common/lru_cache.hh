/**
 * @file
 * LruCache: the one least-recently-used map, behind both of the
 * service's cache tiers (memo and template).
 */

#ifndef QOMPRESS_COMMON_LRU_CACHE_HH
#define QOMPRESS_COMMON_LRU_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

namespace qompress {

/**
 * Unique-key LRU map with an entry cap and an optional byte budget
 * (0 = none). Each entry carries a caller-supplied byte charge. After
 * every insert or capacity change, least recently used entries go
 * while there are more than capacity() (counted in evictions()), then
 * while the charge exceeds the budget (counted in sizeEvictions()), so
 * an entry charged more than the whole budget is not retained. Not
 * thread-safe: callers lock.
 */
template <class K, class V, class Hash = std::hash<K>>
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity, std::size_t byteBudget = 0)
        : capacity_(capacity), byteBudget_(byteBudget)
    {
    }
    LruCache(const LruCache &) = delete; // entries link by address
    LruCache &operator=(const LruCache &) = delete;

    /** The value under @p key, promoted to most recently used; null on
     *  a miss. Valid until the next non-const call. */
    const V *get(const K &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        unlink(&it->second);
        pushFront(&it->second);
        return &it->second.value;
    }

    /** Insert as most recently used (one hash probe), then evict.
     *  Keep-first: an existing entry under @p key stays as it is, not
     *  promoted, and false is returned. */
    bool insert(const K &key, V value, std::size_t bytes = 0)
    {
        auto [it, fresh] = map_.try_emplace(key, std::move(value), bytes);
        if (!fresh)
            return false;
        it->second.key = &it->first;
        pushFront(&it->second);
        bytes_ += bytes;
        evict();
        return true;
    }

    /** Shrinking evicts now. */
    void setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        evict();
    }

    /** Drops every entry; the eviction counters are kept. */
    void clear()
    {
        map_.clear();
        head_ = tail_ = nullptr;
        bytes_ = 0;
    }

    std::size_t size() const { return map_.size(); }
    std::size_t capacity() const { return capacity_; }
    std::size_t bytes() const { return bytes_; }
    std::size_t byteBudget() const { return byteBudget_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t sizeEvictions() const { return sizeEvictions_; }

  private:
    /** A map-owned entry on the recency list (head = most recent).
     *  unordered_map nodes never move, so the links and the key
     *  pointer survive rehashing. */
    struct Node
    {
        Node(V v, std::size_t b) : value(std::move(v)), bytes(b) {}
        V value;
        std::size_t bytes;
        const K *key = nullptr;
        Node *prev = nullptr;
        Node *next = nullptr;
    };

    void unlink(Node *n)
    {
        (n->prev ? n->prev->next : head_) = n->next;
        (n->next ? n->next->prev : tail_) = n->prev;
    }

    void pushFront(Node *n)
    {
        n->prev = nullptr;
        n->next = head_;
        (head_ ? head_->prev : tail_) = n;
        head_ = n;
    }

    void evict()
    {
        for (; map_.size() > capacity_; ++evictions_)
            dropTail();
        for (; byteBudget_ > 0 && bytes_ > byteBudget_; ++sizeEvictions_)
            dropTail();
    }

    void dropTail()
    {
        Node *n = tail_;
        unlink(n);
        bytes_ -= n->bytes;
        map_.erase(map_.find(*n->key));
    }

    std::unordered_map<K, Node, Hash> map_;
    Node *head_ = nullptr, *tail_ = nullptr;
    std::size_t capacity_, byteBudget_, bytes_ = 0;
    std::uint64_t evictions_ = 0, sizeEvictions_ = 0;
};

} // namespace qompress

#endif // QOMPRESS_COMMON_LRU_CACHE_HH
