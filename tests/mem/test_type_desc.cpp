/**
 * @file
 * Recursive type descriptors: layout sizes, scalar enumeration with FP
 * identification (the SW-Tr annotation language of Section 4.2).
 */

#include <gtest/gtest.h>
#include <vector>

#include "mem/type_desc.hpp"

namespace icheck::mem
{
namespace
{

using Visit = std::tuple<std::size_t, ScalarKind, unsigned>;

std::vector<Visit>
scan(const TypeRef &type)
{
    std::vector<Visit> visits;
    type->forEachScalar([&](std::size_t off, ScalarKind kind, unsigned w) {
        visits.emplace_back(off, kind, w);
    });
    return visits;
}

TEST(TypeDesc, ScalarSizes)
{
    EXPECT_EQ(tInt8()->size(), 1u);
    EXPECT_EQ(tInt16()->size(), 2u);
    EXPECT_EQ(tInt32()->size(), 4u);
    EXPECT_EQ(tInt64()->size(), 8u);
    EXPECT_EQ(tFloat()->size(), 4u);
    EXPECT_EQ(tDouble()->size(), 8u);
    EXPECT_EQ(tPointer()->size(), 8u);
    EXPECT_EQ(tPad(13)->size(), 13u);
}

TEST(TypeDesc, ArrayLayout)
{
    const TypeRef arr = tArray(tDouble(), 10);
    EXPECT_EQ(arr->size(), 80u);
    const auto visits = scan(arr);
    ASSERT_EQ(visits.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(std::get<0>(visits[i]), i * 8);
        EXPECT_EQ(std::get<1>(visits[i]), ScalarKind::Double);
    }
}

TEST(TypeDesc, StructLayoutSequential)
{
    const TypeRef node = tStruct({tInt32(), tPad(4), tDouble(),
                                  tPointer()});
    EXPECT_EQ(node->size(), 24u);
    const auto visits = scan(node);
    ASSERT_EQ(visits.size(), 4u);
    EXPECT_EQ(std::get<0>(visits[0]), 0u);
    EXPECT_EQ(std::get<0>(visits[1]), 4u);
    EXPECT_EQ(std::get<1>(visits[1]), ScalarKind::Pad);
    EXPECT_EQ(std::get<0>(visits[2]), 8u);
    EXPECT_EQ(std::get<1>(visits[2]), ScalarKind::Double);
    EXPECT_EQ(std::get<0>(visits[3]), 16u);
}

TEST(TypeDesc, NestedArrayOfStructs)
{
    const TypeRef elem = tStruct({tFloat(), tInt32()});
    const TypeRef arr = tArray(elem, 3);
    const auto visits = scan(arr);
    ASSERT_EQ(visits.size(), 6u);
    EXPECT_EQ(std::get<0>(visits[2]), 8u); // second struct's float
    EXPECT_EQ(std::get<1>(visits[2]), ScalarKind::Float);
    EXPECT_EQ(std::get<0>(visits[5]), 20u); // third struct's int
}

TEST(TypeDesc, FpClassification)
{
    EXPECT_EQ(scalarClass(ScalarKind::Float), hashing::ValueClass::Float);
    EXPECT_EQ(scalarClass(ScalarKind::Double),
              hashing::ValueClass::Double);
    EXPECT_EQ(scalarClass(ScalarKind::Int64),
              hashing::ValueClass::Integer);
    EXPECT_EQ(scalarClass(ScalarKind::Pointer),
              hashing::ValueClass::Integer);
}

TEST(TypeDesc, HasFpIsSetWhenBuilt)
{
    EXPECT_TRUE(tDouble()->hasFp());
    EXPECT_TRUE(tFloat()->hasFp());
    EXPECT_FALSE(tInt64()->hasFp());
    EXPECT_FALSE(tPad(7)->hasFp());
    EXPECT_TRUE(tArray(tFloat(), 3)->hasFp());
    EXPECT_FALSE(tArray(tDouble(), 0)->hasFp()) << "no element, no FP";
    EXPECT_FALSE(tStruct({tInt32(), tPointer()})->hasFp());
    EXPECT_TRUE(
        tStruct({tInt32(), tArray(tStruct({tPad(2), tDouble()}), 2)})
            ->hasFp());
}

TEST(TypeDesc, FpWalkVisitsExactlyTheFpScalars)
{
    const TypeRef node = tStruct(
        {tInt32(), tArray(tStruct({tPad(4), tDouble(), tInt8()}), 3),
         tArray(tInt64(), 5), tFloat(), tArray(tDouble(), 2)});
    std::vector<Visit> expected;
    for (const Visit &visit : scan(node)) {
        const ScalarKind kind = std::get<1>(visit);
        if (kind == ScalarKind::Float || kind == ScalarKind::Double)
            expected.push_back(visit);
    }
    std::vector<Visit> fp;
    node->forEachFpScalar([&](std::size_t off, ScalarKind kind,
                              unsigned w) { fp.emplace_back(off, kind, w); });
    EXPECT_EQ(fp, expected);
    ASSERT_EQ(fp.size(), 6u);
    EXPECT_EQ(std::get<0>(fp[0]), 8u);
    EXPECT_EQ(std::get<0>(fp[3]), 4u + 3 * 13 + 40);
}

TEST(TypeDesc, DescribeRendersShape)
{
    EXPECT_EQ(tDouble()->describe(), "f64");
    EXPECT_EQ(tArray(tDouble(), 128)->describe(), "f64[128]");
    EXPECT_EQ(tStruct({tInt32(), tFloat()})->describe(), "{i32,f32}");
}

TEST(TypeDesc, SharedDescriptorsAreImmutable)
{
    const TypeRef d = tDouble();
    const TypeRef a1 = tArray(d, 4);
    const TypeRef a2 = tArray(d, 8);
    EXPECT_EQ(a1->size(), 32u);
    EXPECT_EQ(a2->size(), 64u);
}

} // namespace
} // namespace icheck::mem
