/**
 * @file
 * Test-case containers shared by the fuzzer and the repair engine.
 */

#ifndef HETEROGEN_FUZZ_TESTSUITE_H
#define HETEROGEN_FUZZ_TESTSUITE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/kernel_arg.h"

namespace heterogen::fuzz {

/** One kernel test input. */
struct TestCase
{
    int id = 0;
    std::vector<interp::KernelArg> args;

    std::string str() const { return interp::argsToString(args); }
};

/** An ordered, duplicate-free collection of test cases. */
class TestSuite
{
  public:
    /** Add unless an identical argument vector already exists. */
    bool
    add(std::vector<interp::KernelArg> args)
    {
        for (const TestCase &t : cases_) {
            if (t.args == args)
                return false;
        }
        TestCase t;
        t.id = static_cast<int>(cases_.size());
        t.args = std::move(args);
        cases_.push_back(std::move(t));
        return true;
    }

    const std::vector<TestCase> &cases() const { return cases_; }
    size_t size() const { return cases_.size(); }
    bool empty() const { return cases_.empty(); }

    const TestCase &operator[](size_t i) const { return cases_[i]; }

    /**
     * Most interpreter steps any committed run took while a fuzz
     * campaign built this suite (0 for a suite built by hand). The
     * profile and difftest stages start their runs inline when it is
     * below interp::kParallelMinSteps; it never changes a result.
     */
    uint64_t maxRunSteps() const { return max_run_steps_; }
    void noteRunSteps(uint64_t steps)
    {
        max_run_steps_ = std::max(max_run_steps_, steps);
    }

  private:
    std::vector<TestCase> cases_;
    uint64_t max_run_steps_ = 0;
};

} // namespace heterogen::fuzz

#endif // HETEROGEN_FUZZ_TESTSUITE_H
