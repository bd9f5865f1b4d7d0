/**
 * @file
 * A test reader over a fixed request list that accepts any order.
 *
 * VectorTrace rejects unsorted input at construction, so a test of a
 * consumer's own time-order check needs a reader that does not.
 */

#ifndef SIEVESTORE_TESTS_LIST_READER_HPP
#define SIEVESTORE_TESTS_LIST_READER_HPP

#include <utility>
#include <vector>

#include "trace/trace_reader.hpp"

namespace sievestore {
namespace testutil {

class ListReader : public trace::TraceReader
{
  public:
    explicit ListReader(std::vector<trace::Request> reqs)
        : reqs_(std::move(reqs))
    {
    }

    bool
    next(trace::Request &out) override
    {
        if (pos_ >= reqs_.size())
            return false;
        out = reqs_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<trace::Request> reqs_;
    size_t pos_ = 0;
};

} // namespace testutil
} // namespace sievestore

#endif // SIEVESTORE_TESTS_LIST_READER_HPP
