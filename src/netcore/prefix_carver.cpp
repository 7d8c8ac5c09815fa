#include "netcore/prefix_carver.hpp"

namespace cgn::netcore {

Ipv4Prefix PrefixCarver::next(int length) {
  if (length < parent_.length())
    throw std::invalid_argument("requested prefix shorter than parent");
  Ipv4Prefix candidate{Ipv4Address{}, length};
  const std::uint64_t block = candidate.size();
  // Align the cursor to the block size.
  std::uint64_t start = (consumed_ + block - 1) / block * block;
  if (start + block > parent_.size())
    throw std::length_error("prefix carver exhausted: " + parent_.to_string());
  consumed_ = start + block;
  return Ipv4Prefix{parent_.at(start), length};
}

}  // namespace cgn::netcore
