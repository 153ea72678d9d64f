/**
 * @file
 * A warm Statevector runs every compiled Table-1 ansatz without a heap
 * allocation: bind() fills the pool the previous run sized, and each
 * kernel call below the parallel threshold is one inline call.
 *
 * The count comes from replacing the global operator new below, which
 * is why this suite has a binary of its own and is left out of the
 * sanitizer builds: their runtimes bring allocators of their own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new> // qismet-lint: allow(naked-new) the header, not an expression
#include <vector>

#include "apps/applications.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/statevector.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qismet {
namespace {

TEST(WarmRunAllocations, EveryTable1AnsatzRunsWithoutTheHeap)
{
    for (int index = 1; index <= 6; ++index) {
        const Application app = application(index);
        const CompiledCircuit cc(app.ansatzCircuit);
        Statevector state(app.ansatzCircuit.numQubits());
        const std::vector<double> theta(
            static_cast<std::size_t>(cc.numParams()), 0.3);
        state.run(cc, theta); // sizes the bind pool
        const std::size_t before = g_allocations.load();
        state.run(cc, theta);
        EXPECT_EQ(g_allocations.load() - before, 0u)
            << "App" << index << ": " << cc.ops().size() << " ops";
    }
}

TEST(WarmRunAllocations, TheCounterSeesAnAllocation)
{
    // Guards the test above against a replacement the linker ignored.
    const std::size_t before = g_allocations.load();
    void *p = ::operator new(16);
    EXPECT_EQ(g_allocations.load() - before, 1u);
    ::operator delete(p);
}

} // namespace
} // namespace qismet
