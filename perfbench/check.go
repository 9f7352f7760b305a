package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
)

// The scalar-field moduli of the two curves, written out here so the
// statement checks do not lean on the program's own field arithmetic.
var scalarModulus = map[string]*big.Int{
	"bn128":     mustInt("21888242871839275222246405745257275088548364400416034343698204186575808495617"),
	"bls12-381": mustInt("52435875175126190479447740508185965837690552500527637822603658699938581184513"),
}

func mustInt(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("perfbench: bad constant " + s)
	}
	return v
}

// opRNG is the random source of operation i under seed: every input an
// operation uses comes from here, so one seed always yields the same
// request sequence, whatever order the clients run it in.
func opRNG(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)))
}

// randScalar draws a private input x uniformly from [1, r).
func randScalar(rng *rand.Rand, curve string) *big.Int {
	r := scalarModulus[curve]
	var buf [48]byte
	for i := 0; i < len(buf); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
	x := new(big.Int).SetBytes(buf[:])
	x.Mod(x, new(big.Int).Sub(r, big.NewInt(1)))
	return x.Add(x, big.NewInt(1))
}

// expOutput is the public output of the exponentiation circuit,
// y = x^e mod r, computed with math/big.
func expOutput(curve string, x *big.Int, e int) *big.Int {
	return new(big.Int).Exp(x, big.NewInt(int64(e)), scalarModulus[curve])
}

// tamper turns a true public output into a false one: y+1 mod r. Since
// x is never 0, x^e is never 0, so even the wrap from r-1 to 0 yields a
// statement no witness satisfies.
func tamper(curve string, y *big.Int) *big.Int {
	t := new(big.Int).Add(y, big.NewInt(1))
	return t.Mod(t, scalarModulus[curve])
}

// checkOutput compares a reply's public wires with the expected output.
func checkOutput(curve string, public []string, x *big.Int, e int) error {
	if len(public) != 1 {
		return fmt.Errorf("want 1 public wire, got %d", len(public))
	}
	got, ok := new(big.Int).SetString(public[0], 0)
	if !ok {
		return fmt.Errorf("public wire %q is not a number", public[0])
	}
	if want := expOutput(curve, x, e); got.Cmp(want) != 0 {
		return fmt.Errorf("y = %s, want x^%d mod r = %s", got, e, want)
	}
	return nil
}
