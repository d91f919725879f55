package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics page.
type scrape []sample

func fetchScrape(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseSample reads `name{k="v",...} value` or `name value`.
func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' && rest != "" {
					c, rest = rest[0], rest[1:]
					if c == 'n' {
						c = '\n'
					}
				}
				val.WriteByte(c)
			}
			s.labels[key] = val.String()
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("malformed value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// sum adds every sample of the named series whose labels include match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	var t float64
	for _, s := range sc {
		if s.name == name && labelsMatch(s.labels, match) {
			t += s.value
		}
	}
	return t
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// quantile estimates the q-quantile of the named histogram, merged over
// label sets matching match, by linear interpolation inside the bucket
// that holds the rank (as Prometheus's histogram_quantile does). It also
// returns the observation count behind the estimate.
func (sc scrape) quantile(name string, q float64, match map[string]string) (float64, float64) {
	cum := map[float64]float64{}
	for _, s := range sc {
		if s.name != name+"_bucket" || !labelsMatch(s.labels, match) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return math.NaN(), 0
	}
	total := cum[bounds[len(bounds)-1]]
	if total == 0 {
		return math.NaN(), 0
	}
	rank := q * total
	lower, below := 0.0, 0.0
	for _, le := range bounds {
		if cum[le] >= rank {
			if math.IsInf(le, 1) {
				return lower, total
			}
			return lower + (le-lower)*ratio(rank-below, cum[le]-below), total
		}
		lower, below = le, cum[le]
	}
	return lower, total
}
