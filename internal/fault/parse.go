package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the one parser behind every textual fault description in
// the system: the continuumd -chaos flag and scenario chaos events share
// a single comma-separated key=value grammar — and a single
// error-message style, so a typo reads the same no matter where it was
// written.

// ParseChaos parses the chaos grammar: comma-separated key=value pairs,
// e.g.
//
//	drop=0.05,err=0.1,delay=20ms,delayp=0.2,up=10s,down=500ms,seed=1
//
// Keys: drop/err/delayp (probabilities), delay (mean latency spike,
// Go duration), up/down (mean phase lengths, Go durations: mean time
// between failures and mean time to repair), seed (int64). Unknown keys
// are errors so typos fail fast. The same grammar drives continuumd
// -chaos and scenario chaos events.
func ParseChaos(str string) (ChaosSpec, error) {
	var spec ChaosSpec
	if strings.TrimSpace(str) == "" {
		return spec, fmt.Errorf("fault: empty spec")
	}
	for _, kv := range strings.Split(str, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("fault: term %q is not key=value", kv)
		}
		if err := spec.set(k, v); err != nil {
			return spec, err
		}
	}
	return spec, spec.Validate()
}

// set applies one key=value term of the grammar.
func (s *ChaosSpec) set(k, v string) error {
	var err error
	switch k {
	case "up":
		s.MeanUp, err = seconds(v)
	case "down":
		s.MeanDown, err = seconds(v)
	case "drop":
		s.DropProb, err = strconv.ParseFloat(v, 64)
	case "err":
		s.ErrProb, err = strconv.ParseFloat(v, 64)
	case "delayp":
		s.DelayProb, err = strconv.ParseFloat(v, 64)
	case "delay":
		s.DelayMean, err = time.ParseDuration(v)
		if s.DelayProb == 0 {
			s.DelayProb = 1 // delay= alone means "every request"
		}
	case "seed":
		s.Seed, err = strconv.ParseInt(v, 10, 64)
	default:
		return fmt.Errorf("fault: unknown key %q", k)
	}
	if err != nil {
		return fmt.Errorf("fault: %s: %w", k, err)
	}
	return nil
}

// seconds parses a Go duration ("500ms", "10s") into float seconds — the
// unit Spec uses for both virtual and wall-clock phase lengths.
func seconds(v string) (float64, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
