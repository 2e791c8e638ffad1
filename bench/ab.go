package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The same-box A/B: the working tree against a git ref, both running the
// working tree's bench/, in alternating pairs of runs.

// side is one tree under comparison and its built bench binary.
type side struct {
	name, root, bin string
	failed          int64
}

// abCompare runs pairs of runs per workload on ref and on the working tree,
// alternating which side goes first, and prints for each (workload,
// end-to-end metric) both sides' median and quartiles, how often the
// working tree won, and a verdict under BENCHMARK.json's bound.
func abCompare(root, ref string, pairs int, names []string, seed int64, seconds int, w io.Writer) error {
	bounds, err := readBounds(root)
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "ab")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "base")
	if err := extract(root, ref, base); err != nil {
		return err
	}
	// Both sides run identical benchmark code: the working tree's.
	if err := os.RemoveAll(filepath.Join(base, "bench")); err != nil {
		return err
	}
	if err := copyTree(filepath.Join(root, "bench"), filepath.Join(base, "bench")); err != nil {
		return err
	}
	sides := []*side{{name: ref, root: base}, {name: "working tree", root: root}}
	for i, s := range sides {
		s.bin = filepath.Join(dir, fmt.Sprintf("bench-%d", i))
		cmd := exec.Command("go", "build", "-C", filepath.Join(s.root, "bench"), "-o", s.bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("bench/ does not build against %s: %v\n%s", s.name, err, out)
		}
	}

	// vals[workload][metric][side] holds one value per pair.
	vals := map[string]map[string][2][]float64{}
	for p := range pairs {
		for _, n := range names {
			if vals[n] == nil {
				vals[n] = map[string][2][]float64{}
			}
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, si := range order {
				s := sides[si]
				fmt.Fprintf(os.Stderr, "ab: pair %d/%d %s on %s\n", p+1, pairs, n, s.name)
				res, err := runSide(s, n, seed+int64(p), seconds)
				if err != nil {
					return err
				}
				s.failed += res.Failed
				for m, v := range res.Metrics {
					cur := vals[n][m]
					cur[si] = append(cur[si], v.Value)
					vals[n][m] = cur
				}
			}
		}
	}

	fmt.Fprintf(w, "A/B: %s (base) vs working tree (head), %d pairs, seeds %d..%d, %ds phases\n",
		ref, pairs, seed, seed+int64(pairs)-1, seconds)
	fmt.Fprintf(w, "%-10s %-15s %28s %28s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, n := range names {
		for _, d := range e2eMetrics {
			v := vals[n][d.name]
			bq1, bmed, bq3 := quartiles(v[0])
			hq1, hmed, hq3 := quartiles(v[1])
			wins, verdict := judge(v[0], v[1], d.higher, bounds[d.name])
			fmt.Fprintf(w, "%-10s %-15s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %3d/%-2d  %s\n",
				n, d.name, bmed, bq1, bq3, hmed, hq1, hq3, wins, len(v[1]), verdict)
		}
	}
	fmt.Fprintf(w, "failed cells: base %d, head %d\n", sides[0].failed, sides[1].failed)
	if sides[1].failed > sides[0].failed {
		fmt.Fprintln(w, "the head failed more cells than the base: no gain counts")
	}
	return nil
}

// judge compares head against base per the choosing-metrics rules: a gain
// needs 9 wins in 10 pairs and a median difference beyond the base's
// quartile spread; a spread wider than the bound leaves the metric
// unresolved unless every head run beats every base run; otherwise the
// head's median may be worse by at most the bound.
func judge(base, head []float64, higher bool, bound float64) (wins int, verdict string) {
	better := func(h, b float64) bool {
		if higher {
			return h > b
		}
		return h < b
	}
	for i := range min(len(base), len(head)) {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	diff := hmed - bmed
	if diff < 0 {
		diff = -diff
	}
	worse := (hmed - bmed) / bmed
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case float64(wins) >= 0.9*float64(len(head)) && better(hmed, bmed) && diff > bq3-bq1:
		return wins, "improved"
	case (bq3-bq1)/bmed > bound && !allBetter:
		return wins, "unresolved"
	case worse > bound:
		return wins, "regressed"
	}
	return wins, "within bound"
}

// runSide runs one workload on one side and returns its result line.
func runSide(s *side, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(s.bin, "-root", s.root, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	detach(cmd)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", workload, s.name, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s on %s: result line: %w", workload, s.name, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s on %s: a correctness gate failed", workload, s.name)
	}
	return res, nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// extract writes the tree of ref into dir with git archive.
func extract(root, ref, dir string) error {
	cmd := exec.Command("git", "-C", root, "archive", "--format=tar", ref)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	terr := untar(pipe, dir)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", ref, err, strings.TrimSpace(errOut.String()))
	}
	return terr
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, fs.FileMode(h.Mode)); err != nil {
				return err
			}
		}
	}
}

func writeFile(path string, r io.Reader, mode fs.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode.Perm())
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return writeFile(filepath.Join(dst, rel), f, 0o644)
	})
}
