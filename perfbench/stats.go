package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

// median is the middle value, averaging the two middle values of an even
// set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values (0 for an empty set).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perKey collects repeated timings of identical operations, which reduce
// to one figure per key so that every key weighs the same, however often
// it ran.
type perKey map[string][]float64

func (p perKey) add(key string, v float64) { p[key] = append(p[key], v) }

// means returns each key's mean, in key order.
func (p perKey) means() []float64 {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, mean(p[k]))
	}
	return out
}

// peakRSSMiB reads VmHWM, the peak resident set, of process pid.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// opCount is one operation class's failure accounting.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// ledger counts attempted and failed operations per class; failed checks
// count as failures of the class they checked.
type ledger struct {
	ops      map[string]*opCount
	failures []string
}

func newLedger() *ledger { return &ledger{ops: map[string]*opCount{}} }

func (l *ledger) class(name string) *opCount {
	c := l.ops[name]
	if c == nil {
		c = &opCount{}
		l.ops[name] = c
	}
	return c
}

// attempt records one operation of class name; a non-nil err fails it.
func (l *ledger) attempt(name string, err error) bool {
	c := l.class(name)
	c.Attempted++
	if err != nil {
		c.Failed++
		if len(l.failures) < 20 {
			l.failures = append(l.failures, fmt.Sprintf("%s: %v", name, err))
		}
		return false
	}
	return true
}

func (l *ledger) totals() (attempted, failed int) {
	for _, c := range l.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}
