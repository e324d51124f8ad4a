#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace monatt::sim
{

std::uint32_t
EventQueue::acquireSlot(Callback callback, const char *label)
{
    std::uint32_t s;
    if (!freeList.empty()) {
        s = freeList.back();
        freeList.pop_back();
    } else {
        s = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Slot &slot = slots[s];
    slot.callback = std::move(callback);
    slot.label = label;
    return s;
}

void
EventQueue::releaseSlot(std::uint32_t s)
{
    Slot &slot = slots[s];
    slot.callback = Callback();
    slot.label = nullptr;
    slot.fence = nullptr;
    slot.heapPos = kNotInHeap;
    // Bump the generation so every outstanding id for this slot goes
    // stale; a wrap skips 0 so no issued id ever equals the sentinel.
    if (++slot.generation == 0)
        slot.generation = 1;
    freeList.push_back(s);
}

void
EventQueue::siftUp(std::size_t pos)
{
    const HeapNode node = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / kArity;
        if (!before(node, heap[parent]))
            break;
        heap[pos] = heap[parent];
        slots[heap[pos].slot].heapPos = static_cast<std::uint32_t>(pos);
        pos = parent;
    }
    heap[pos] = node;
    slots[node.slot].heapPos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::siftDown(std::size_t pos)
{
    const HeapNode node = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = kArity * pos + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap[c], heap[best]))
                best = c;
        if (!before(heap[best], node))
            break;
        heap[pos] = heap[best];
        slots[heap[pos].slot].heapPos = static_cast<std::uint32_t>(pos);
        pos = best;
    }
    heap[pos] = node;
    slots[node.slot].heapPos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::removeAt(std::size_t pos)
{
    const HeapNode last = heap.back();
    heap.pop_back();
    if (pos >= heap.size())
        return; // removed the tail itself
    heap[pos] = last;
    slots[last.slot].heapPos = static_cast<std::uint32_t>(pos);
    if (pos > 0 && before(heap[pos], heap[(pos - 1) / kArity]))
        siftUp(pos);
    else
        siftDown(pos);
}

EventId
EventQueue::schedule(SimTime when, Callback callback, const char *label)
{
    if (when < currentTime)
        throw std::invalid_argument("EventQueue: scheduling in the past");
    const std::uint32_t s = acquireSlot(std::move(callback), label);
    heap.push_back(HeapNode{when, nextSeq++, s});
    siftUp(heap.size() - 1);
    return (static_cast<EventId>(slots[s].generation) << 32) | s;
}

EventId
EventQueue::scheduleAfter(SimTime delay, Callback callback,
                          const char *label)
{
    return schedule(currentTime + delay, std::move(callback), label);
}

EventId
EventQueue::scheduleAfter(SimTime delay, const CrashFence &fence,
                          Callback callback, const char *label)
{
    const EventId id = scheduleAfter(delay, std::move(callback), label);
    Slot &slot = slots[static_cast<std::uint32_t>(id)];
    slot.fence = &fence;
    slot.era = fence.era();
    return id;
}

void
EventQueue::cancel(EventId id)
{
    const std::uint32_t s = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || s >= slots.size())
        return; // never-issued id (including the 0 sentinel)
    Slot &slot = slots[s];
    if (slot.generation != gen || slot.heapPos == kNotInHeap)
        return; // already fired or cancelled
    removeAt(slot.heapPos);
    releaseSlot(s);
}

bool
EventQueue::runOne()
{
    if (heap.empty())
        return false;
    const HeapNode top = heap.front();
    const HeapNode last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        heap[0] = last;
        slots[last.slot].heapPos = 0;
        siftDown(0);
    }
    currentTime = top.when;
    // Move the callback out and retire the slot *before* invoking:
    // a handler cancelling its own (now stale) id must be a no-op,
    // and the handler may reallocate the slot table by scheduling.
    Slot &slot = slots[top.slot];
    Callback callback = std::move(slot.callback);
    const bool live = slot.fence == nullptr || slot.fence->admits(slot.era);
    releaseSlot(top.slot);
    ++executedCount;
    if (live)
        callback();
    return true;
}

SimTime
EventQueue::nextEventTime() const
{
    return heap.empty() ? kTimeNever : heap.front().when;
}

std::size_t
EventQueue::run(SimTime until)
{
    std::size_t n = 0;
    while (!heap.empty() && heap.front().when <= until) {
        if (runOne())
            ++n;
    }
    if (currentTime < until && until != kTimeNever)
        currentTime = until;
    return n;
}

std::size_t
EventQueue::runAll(std::size_t maxEvents)
{
    std::size_t n = 0;
    while (n < maxEvents && runOne())
        ++n;
    return n;
}

void
EventQueue::advance(SimTime delta)
{
    if (delta < 0)
        throw std::invalid_argument("EventQueue: negative advance");
    run(currentTime + delta);
}

} // namespace monatt::sim
