// Package demo plants one case of each rule the dead check applies.
package demo

import "fmt"

// Live starts a live chain: the command calls it, and it calls helper.
func Live() string { return helper() }

func helper() string { return fmt.Sprint(Stringy(1)) }

// Dead is a dead chain: nothing outside this package calls it.
func Dead() int { return deadHelper() }

// deadHelper has no caller but Dead.
func deadHelper() int { return 1 }

// Stringy is printed by helper.
type Stringy int

// String is live only because Stringy satisfies fmt.Stringer.
func (s Stringy) String() string { return "stringy" }

// Shape is the local interface Total ranges over.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

// Area is live only because Square satisfies Shape.
func (q Square) Area() float64 { return q.Side * q.Side }

// Total sums the areas of ss.
func Total(ss ...Shape) float64 {
	sum := 0.0
	for _, s := range ss {
		sum += s.Area()
	}
	return sum
}

// Kept is unreachable but allowlisted.
func Kept() {}

// init is a root, so initHelper is live.
func init() { initHelper() }

func initHelper() {}

// Config plants the field check: the command sets Size, Preset's
// literal sets Mode, the allowlist keeps Spare, and only an assignment
// in this package, which fills a default, writes Unset.
type Config struct{ Size, Mode, Spare, Unset int }

// Preset returns a Config with Mode set.
func Preset() Config { return Config{Mode: 1} }

// Sized fills Unset's default and sums the fields.
func Sized(c Config) int {
	if c.Unset == 0 {
		c.Unset = 1
	}
	return c.Size + c.Mode + c.Spare + c.Unset
}
